package expr

import (
	"fmt"

	"filterjoin/internal/value"
)

// This file lowers a predicate Expr tree once into a Pred: a small tree
// of kernels that evaluate a whole batch of rows against a selection
// vector (DESIGN.md §11). The contract with the interpreted engine is
// bit-identical behavior:
//
//   - a row qualifies under SelectBatch iff EvalBool(e, row) is true;
//   - when any row errors, the SAME error surfaces for the SAME row the
//     row-at-a-time loop would have hit first, and the evaluated count
//     (for CPU-tuple charging parity) is that row's position + 1;
//   - Param slots rebind per execution via Bind without recompiling.
//
// The kernels evaluate kid-major (one kid over the whole selection, then the
// next), which is what makes them fast — but the interpreter is
// row-major, and errors are position-sensitive. The cascade rule
// reconciles the two: when a kid errors at row e, the rows before e got
// honest verdicts, so the kernel records (e, err) as a candidate,
// truncates the surviving selection to rows < e, and keeps going with
// the remaining kids. Any later candidate is at a strictly earlier row,
// so the LAST candidate recorded is exactly the first error the
// row-major loop would have reached.

// predKernel is a compiled predicate node. eval filters the ascending
// selection in (row indexes into rows) into out, returning the surviving
// selection, the error row (-1 if none) and the error. On error the
// returned selection holds only rows before errRow that qualified. out
// may alias in: every kernel writes position j only after reading
// position i >= j.
type predKernel interface {
	eval(rows []value.Row, in []int32, out []int32) ([]int32, int32, error)
	evalRow(row value.Row) (bool, error)
	bind(params []value.Value)
}

// Pred is a compiled predicate. It owns reusable selection scratch, so
// one Pred instance must not be shared across goroutines; operators
// compile their own.
type Pred struct {
	root  predKernel
	ident []int32
	out   []int32
}

// CompilePred lowers e into batch kernels. Compile once (when the
// operator is built), then Bind per execution. A nil e yields a nil Pred.
func CompilePred(e Expr) *Pred {
	if e == nil {
		return nil
	}
	return &Pred{root: compileKernel(e)}
}

// Bind installs the current parameter bindings, the kernel counterpart
// of BindParams: each Param operand resolves through Param.Value, and an
// unbound one errors at evaluation time. Binding a nil Pred (no
// predicate) is a no-op.
func (p *Pred) Bind(params []value.Value) {
	if p != nil {
		p.root.bind(params)
	}
}

// SelectBatch evaluates the predicate over all rows and returns the
// ascending indexes of qualifying rows. The selection is valid until the
// next SelectBatch call. evaluated is the number of rows the row-at-a-
// time loop would have touched: len(rows) on success, the failing row's
// position + 1 on error — callers charge exactly that many CPU tuples.
func (p *Pred) SelectBatch(rows []value.Row) (sel []int32, evaluated int, err error) {
	n := len(rows)
	if n == 0 {
		return nil, 0, nil
	}
	if n > len(p.ident) {
		p.ident = make([]int32, n)
		for i := range p.ident {
			p.ident[i] = int32(i)
		}
	}
	if cap(p.out) < n {
		p.out = make([]int32, 0, n)
	}
	sel, errRow, err := p.root.eval(rows, p.ident[:n], p.out[:0])
	if err != nil {
		return nil, int(errRow) + 1, err
	}
	return sel, n, nil
}

// EvalRow evaluates the compiled predicate over a single row with
// EvalBool semantics. Join operators use it for residual predicates,
// which they test one joined row at a time.
func (p *Pred) EvalRow(row value.Row) (bool, error) { return p.root.evalRow(row) }

func compileKernel(e Expr) predKernel {
	switch x := e.(type) {
	case Cmp:
		if k, ok := compileCmp(x, false); ok {
			return k
		}
	case Not:
		if c, ok := x.Kid.(Cmp); ok {
			if k, ok := compileCmp(c, true); ok {
				return k
			}
		}
	case And:
		kids := make([]predKernel, len(x.Kids))
		for i, k := range x.Kids {
			kids[i] = compileKernel(k)
		}
		return &andKernel{kids: kids}
	case Or:
		kids := make([]predKernel, len(x.Kids))
		for i, k := range x.Kids {
			kids[i] = compileKernel(k)
		}
		return &orKernel{kids: kids}
	default:
		// Col, Lit, Param, Arith as a boolean root — interpreted below.
	}
	return &fallbackKernel{orig: e, bound: e}
}

// cmpOperand is one side of a compiled comparison: a column reference, a
// fixed literal, or a parameter slot refreshed by bind.
type cmpOperand struct {
	isCol   bool
	col     int
	lit     value.Value // current value when !isCol
	isParam bool
	param   Param
	err     error // unbound-parameter error, surfaced per row
}

func compileOperand(e Expr) (cmpOperand, bool) {
	switch x := e.(type) {
	case Col:
		return cmpOperand{isCol: true, col: x.Idx}, true
	case Lit:
		return cmpOperand{lit: x.V}, true
	case Param:
		o := cmpOperand{isParam: true, param: x}
		o.bind(nil)
		return o, true
	default:
		// Composite operands (Cmp, And, Or, Not, Arith) stay interpreted.
		return cmpOperand{}, false
	}
}

func (o *cmpOperand) bind(params []value.Value) {
	if o.isParam {
		o.lit, o.err = o.param.Value(params)
	}
}

func (o *cmpOperand) load(row value.Row) (value.Value, error) {
	if o.isCol {
		if o.col < 0 || o.col >= len(row) {
			return value.Null, fmt.Errorf("expr: column index %d out of range (row width %d)", o.col, len(row))
		}
		return row[o.col], nil
	}
	return o.lit, o.err
}

// cmpKernel evaluates Col⋈Lit / Col⋈Col / Param shapes. neg compiles
// NOT (a ⋈ b): the verdict flips, NULL still disqualifies.
type cmpKernel struct {
	op   CmpOp
	neg  bool
	l, r cmpOperand
}

func compileCmp(c Cmp, neg bool) (predKernel, bool) {
	l, ok := compileOperand(c.L)
	if !ok {
		return nil, false
	}
	r, ok := compileOperand(c.R)
	if !ok {
		return nil, false
	}
	return &cmpKernel{op: c.Op, neg: neg, l: l, r: r}, true
}

func (c *cmpKernel) bind(params []value.Value) {
	c.l.bind(params)
	c.r.bind(params)
}

func cmpMatch(op CmpOp, cmp int) bool {
	switch op {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	default: // GE
		return cmp >= 0
	}
}

func (c *cmpKernel) eval(rows []value.Row, in []int32, out []int32) ([]int32, int32, error) {
	// The common Col ⋈ Lit shapes get a loop specialized to the
	// literal's kind, skipping the generic cross-kind Compare when the
	// column matches it. The specialization is picked per batch, since
	// a Param rebind can change the literal's kind between executions.
	if c.l.isCol && !c.r.isCol && c.r.err == nil {
		switch c.r.lit.Kind() {
		case value.KindInt:
			return c.evalColInt(rows, in, out)
		case value.KindString:
			return c.evalColStr(rows, in, out)
		case value.KindFloat:
			return c.evalColFloat(rows, in, out)
		}
	}
	return c.evalGeneric(rows, in, out)
}

func (c *cmpKernel) colErr(row value.Row) error {
	return fmt.Errorf("expr: column index %d out of range (row width %d)", c.l.col, len(row))
}

func (c *cmpKernel) evalColInt(rows []value.Row, in []int32, out []int32) ([]int32, int32, error) {
	out = out[:0]
	col, lim := c.l.col, c.r.lit.Int()
	for _, ri := range in {
		row := rows[ri]
		if col < 0 || col >= len(row) {
			return out, ri, c.colErr(row)
		}
		v := row[col]
		var cmp int
		switch v.Kind() {
		case value.KindInt:
			switch li := v.Int(); {
			case li < lim:
				cmp = -1
			case li > lim:
				cmp = 1
			}
		case value.KindNull:
			continue
		default:
			cmp = value.Compare(v, c.r.lit)
		}
		if cmpMatch(c.op, cmp) != c.neg {
			out = append(out, ri)
		}
	}
	return out, -1, nil
}

func (c *cmpKernel) evalColFloat(rows []value.Row, in []int32, out []int32) ([]int32, int32, error) {
	out = out[:0]
	col, lim := c.l.col, c.r.lit.Float()
	for _, ri := range in {
		row := rows[ri]
		if col < 0 || col >= len(row) {
			return out, ri, c.colErr(row)
		}
		v := row[col]
		var cmp int
		switch v.Kind() {
		case value.KindFloat:
			switch f := v.Float(); {
			case f < lim:
				cmp = -1
			case f > lim:
				cmp = 1
			}
		case value.KindInt:
			cmp = value.CompareIntFloat(v.Int(), lim)
		case value.KindNull:
			continue
		default:
			cmp = value.Compare(v, c.r.lit)
		}
		if cmpMatch(c.op, cmp) != c.neg {
			out = append(out, ri)
		}
	}
	return out, -1, nil
}

func (c *cmpKernel) evalColStr(rows []value.Row, in []int32, out []int32) ([]int32, int32, error) {
	out = out[:0]
	col, lim := c.l.col, c.r.lit.Str()
	for _, ri := range in {
		row := rows[ri]
		if col < 0 || col >= len(row) {
			return out, ri, c.colErr(row)
		}
		v := row[col]
		var cmp int
		switch v.Kind() {
		case value.KindString:
			switch s := v.Str(); {
			case s < lim:
				cmp = -1
			case s > lim:
				cmp = 1
			}
		case value.KindNull:
			continue
		default:
			cmp = value.Compare(v, c.r.lit)
		}
		if cmpMatch(c.op, cmp) != c.neg {
			out = append(out, ri)
		}
	}
	return out, -1, nil
}

func (c *cmpKernel) evalGeneric(rows []value.Row, in []int32, out []int32) ([]int32, int32, error) {
	out = out[:0]
	for _, ri := range in {
		row := rows[ri]
		lv, err := c.l.load(row)
		if err != nil {
			return out, ri, err
		}
		rv, err := c.r.load(row)
		if err != nil {
			return out, ri, err
		}
		if lv.IsNull() || rv.IsNull() {
			continue
		}
		if cmpMatch(c.op, value.Compare(lv, rv)) != c.neg {
			out = append(out, ri)
		}
	}
	return out, -1, nil
}

func (c *cmpKernel) evalRow(row value.Row) (bool, error) {
	lv, err := c.l.load(row)
	if err != nil {
		return false, err
	}
	rv, err := c.r.load(row)
	if err != nil {
		return false, err
	}
	if lv.IsNull() || rv.IsNull() {
		return false, nil
	}
	return cmpMatch(c.op, value.Compare(lv, rv)) != c.neg, nil
}

// andKernel narrows the selection through each kid in turn. Later kids
// filter in place over the surviving selection (write index never passes
// read index), so conjunctions cost no extra scratch.
type andKernel struct{ kids []predKernel }

func (a *andKernel) bind(params []value.Value) {
	for _, k := range a.kids {
		k.bind(params)
	}
}

func (a *andKernel) eval(rows []value.Row, in []int32, out []int32) ([]int32, int32, error) {
	cur := in
	errRow := int32(-1)
	var firstErr error
	for i, k := range a.kids {
		dst := out[:0]
		if i > 0 {
			dst = cur[:0]
		}
		next, eRow, err := k.eval(rows, cur, dst)
		cur = next
		if err != nil {
			// Cascade: candidates arrive at strictly decreasing rows,
			// so the last one recorded is the row-major first error.
			errRow, firstErr = eRow, err
		}
		if len(cur) == 0 {
			break
		}
	}
	if len(a.kids) == 0 {
		// Empty And is true: identity selection, copied into out so the
		// caller owns the result.
		cur = append(out[:0], in...)
	}
	return cur, errRow, firstErr
}

func (a *andKernel) evalRow(row value.Row) (bool, error) {
	for _, k := range a.kids {
		ok, err := k.evalRow(row)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// orKernel tracks which rows have matched some kid and which are still
// pending; each kid only sees the pending rows, preserving row-major
// short-circuit behavior (a row that matched an earlier kid is never
// evaluated — and can never error — under a later one).
type orKernel struct {
	kids   []predKernel
	pend   []int32
	kidSel []int32
	marks  []bool
}

func (o *orKernel) bind(params []value.Value) {
	for _, k := range o.kids {
		k.bind(params)
	}
}

func (o *orKernel) eval(rows []value.Row, in []int32, out []int32) ([]int32, int32, error) {
	if cap(o.pend) < len(in) {
		o.pend = make([]int32, len(in))
	}
	if cap(o.kidSel) < len(in) {
		o.kidSel = make([]int32, 0, len(in))
	}
	if len(o.marks) < len(rows) {
		o.marks = make([]bool, len(rows))
	}
	for _, ri := range in {
		o.marks[ri] = false
	}
	pend := o.pend[:len(in)]
	copy(pend, in)
	errRow := int32(-1)
	var firstErr error
	for _, k := range o.kids {
		if len(pend) == 0 {
			break
		}
		trues, eRow, err := k.eval(rows, pend, o.kidSel[:0])
		for _, ri := range trues {
			o.marks[ri] = true
		}
		if err != nil {
			errRow, firstErr = eRow, err
		}
		n := 0
		for _, ri := range pend {
			if o.marks[ri] {
				continue
			}
			if err != nil && ri >= eRow {
				continue
			}
			pend[n] = ri
			n++
		}
		pend = pend[:n]
	}
	out = out[:0]
	for _, ri := range in {
		if o.marks[ri] && (errRow < 0 || ri < errRow) {
			out = append(out, ri)
		}
	}
	return out, errRow, firstErr
}

func (o *orKernel) evalRow(row value.Row) (bool, error) {
	for _, k := range o.kids {
		ok, err := k.evalRow(row)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// fallbackKernel interprets any shape the compiler does not specialize
// (arithmetic, NOT over connectives, …) row by row via EvalBool, with
// parameters substituted the same way the interpreted engine does.
type fallbackKernel struct {
	orig  Expr
	bound Expr
}

func (f *fallbackKernel) bind(params []value.Value) { f.bound = BindParams(f.orig, params) }

func (f *fallbackKernel) eval(rows []value.Row, in []int32, out []int32) ([]int32, int32, error) {
	out = out[:0]
	for _, ri := range in {
		ok, err := EvalBool(f.bound, rows[ri])
		if err != nil {
			return out, ri, err
		}
		if ok {
			out = append(out, ri)
		}
	}
	return out, -1, nil
}

func (f *fallbackKernel) evalRow(row value.Row) (bool, error) { return EvalBool(f.bound, row) }
