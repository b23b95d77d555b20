package exec

import (
	"sort"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// Select filters child rows by a predicate, charging one CPU operation
// per evaluated row.
type Select struct {
	Child Operator
	Pred  *expr.Pred
	in    Batch // scratch for child pulls
}

// NewSelect builds a selection.
func NewSelect(child Operator, pred expr.Expr) *Select {
	return &Select{Child: child, Pred: expr.CompilePred(pred)}
}

// Schema implements Operator.
func (s *Select) Schema() *schema.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Select) Open(ctx *Context) error {
	s.Pred.Bind(ctx.Params)
	s.in.Reset()
	return s.Child.Open(ctx)
}

// NextBatch implements Operator: pull child batches no larger than the
// output budget and run each through the compiled predicate's selection
// vector. The kernel reports how many rows it evaluated before any
// error, so the charge — one CPU operation per evaluated row, including
// a failing row's — is accumulated locally and flushed once (also
// before an evaluation error propagates).
func (s *Select) NextBatch(ctx *Context, dst *Batch, max int) error {
	var cpu int64
	defer func() { ctx.Counter.CPUTuples += cpu }()
	ctx.takeCarrier(&s.in, max)
	for len(dst.Rows) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.in.Reset()
		s.in.Borrow = dst.Borrow // survivors pass through as they are
		if err := s.Child.NextBatch(ctx, &s.in, max); err != nil {
			return err
		}
		if s.in.Len() == 0 {
			return nil
		}
		sel, evaluated, err := s.Pred.SelectBatch(s.in.Rows)
		cpu += int64(evaluated)
		if err != nil {
			return err
		}
		for _, ri := range sel {
			dst.Rows = append(dst.Rows, s.in.Rows[ri])
		}
	}
	return nil
}

// Close implements Operator.
func (s *Select) Close(ctx *Context) {
	ctx.giveCarrier(&s.in)
	s.Child.Close(ctx)
}

// Project computes output expressions over each child row. Output rows
// are carved from an arena instead of allocated per row.
type Project struct {
	Child Operator
	Exprs []expr.Expr // as planned; Open binds a copy
	Out   *schema.Schema
	bound []expr.Expr // Exprs under this execution's ctx.Params
	in    Batch       // scratch for child pulls
	// colIdx is the column index list of an all-column projection, whose
	// evaluation is a pair of copies; nil when any expression is not a
	// plain column. Computed once by the constructors.
	colIdx []int
	arena  value.RowArena
}

// NewProject builds a projection with an explicit output schema.
func NewProject(child Operator, exprs []expr.Expr, out *schema.Schema) *Project {
	return &Project{Child: child, Exprs: exprs, Out: out, colIdx: columnIndexes(exprs)}
}

// NewColumnProject projects the child onto the given column indexes.
func NewColumnProject(child Operator, idx []int) *Project {
	in := child.Schema()
	exprs := make([]expr.Expr, len(idx))
	for i, j := range idx {
		exprs[i] = expr.NewCol(j, in.Col(j).QualifiedName())
	}
	return NewProject(child, exprs, in.Project(idx))
}

// columnIndexes returns the column indexes exprs reference when every
// expression is a plain column, else nil.
func columnIndexes(exprs []expr.Expr) []int {
	idx := make([]int, len(exprs))
	for i, e := range exprs {
		c, ok := e.(expr.Col)
		if !ok {
			return nil
		}
		idx[i] = c.Idx
	}
	return idx
}

// Schema implements Operator.
func (p *Project) Schema() *schema.Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open(ctx *Context) error {
	p.bound = expr.BindParamsList(p.Exprs, ctx.Params)
	p.in.Reset()
	p.in.Borrow = true // evalRow copies every value it keeps
	return p.Child.Open(ctx)
}

// evalRow computes one arena-backed output row. The all-column shape
// copies values directly; Col.Eval's range check is preserved verbatim.
func (p *Project) evalRow(r value.Row) (value.Row, error) {
	if p.colIdx != nil {
		inRange := true
		for _, j := range p.colIdx {
			if j < 0 || j >= len(r) {
				inRange = false // fall through: Col.Eval produces the exact error
				break
			}
		}
		if inRange {
			return p.arena.Project(r, p.colIdx), nil
		}
	}
	out := p.arena.Make(len(p.bound))
	for i, e := range p.bound {
		v, err := e.Eval(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// NextBatch implements Operator: one output row per input row, so one
// child pull fills the whole output batch. Output rows are recycled
// under a borrowing consumer.
func (p *Project) NextBatch(ctx *Context, dst *Batch, max int) error {
	if dst.Borrow {
		p.arena.Recycle(ctx.slabs())
	}
	ctx.takeCarrier(&p.in, max)
	p.in.Reset()
	if err := p.Child.NextBatch(ctx, &p.in, max); err != nil {
		return err
	}
	var cpu int64
	defer func() { ctx.Counter.CPUTuples += cpu }()
	for _, r := range p.in.Rows {
		cpu++
		out, err := p.evalRow(r)
		if err != nil {
			return err
		}
		dst.Rows = append(dst.Rows, out)
	}
	return nil
}

// Close implements Operator.
func (p *Project) Close(ctx *Context) {
	p.arena.Release()
	ctx.giveCarrier(&p.in)
	p.Child.Close(ctx)
}

// Distinct removes duplicate rows with a hash set, charging one CPU
// operation per input row. This is the operator behind ProjCost_F: the
// distinct projection that produces the filter set.
type Distinct struct {
	Child Operator
	in    Batch // scratch for child pulls

	// The seen-set is a RowTable over byte-encoded full keys with one
	// reused scratch buffer, so the steady state allocates only when a
	// new distinct key is retained.
	ht     RowTable
	keyBuf []byte
}

// NewDistinct builds a hash-based duplicate eliminator.
func NewDistinct(child Operator) *Distinct { return &Distinct{Child: child} }

// Schema implements Operator.
func (d *Distinct) Schema() *schema.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open(ctx *Context) error {
	d.ht.initFrom(ctx.Scratch, 0)
	d.keyBuf = d.keyBuf[:0]
	d.in.Reset()
	return d.Child.Open(ctx)
}

// firstSeen reports whether r's full key is new, recording it.
func (d *Distinct) firstSeen(r value.Row) bool {
	d.keyBuf = r.AppendFullKey(d.keyBuf[:0])
	_, added := d.ht.Insert(d.keyBuf)
	return added
}

// NextBatch implements Operator: keep the first occurrence of each
// full-row key, charging one CPU operation per input row.
func (d *Distinct) NextBatch(ctx *Context, dst *Batch, max int) error {
	ctx.takeCarrier(&d.in, max)
	for len(dst.Rows) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		d.in.Reset()
		d.in.Borrow = dst.Borrow // the seen-set keeps key bytes, not rows
		if err := d.Child.NextBatch(ctx, &d.in, max); err != nil {
			return err
		}
		if d.in.Len() == 0 {
			return nil
		}
		var cpu int64
		for _, r := range d.in.Rows {
			cpu++
			if d.firstSeen(r) {
				dst.Rows = append(dst.Rows, r)
			}
		}
		ctx.Counter.CPUTuples += cpu
	}
	return nil
}

// Close implements Operator.
func (d *Distinct) Close(ctx *Context) {
	d.ht.release()
	ctx.giveCarrier(&d.in)
	d.Child.Close(ctx)
}

// Sort materializes and sorts the child's rows on Open, charging CPU
// proportional to n·log₂n comparisons.
type Sort struct {
	Child Operator
	Keys  []int
	Desc  []bool
	// InputHint is the optimizer's input cardinality estimate (0 =
	// unknown); it sizes the buffer the child is drained through.
	InputHint int
	rows      []value.Row
	pos       int
}

// NewSort builds an in-memory sort on the given key columns.
func NewSort(child Operator, keys []int, desc []bool) *Sort {
	return &Sort{Child: child, Keys: keys, Desc: desc}
}

// Schema implements Operator.
func (s *Sort) Schema() *schema.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(ctx *Context) error {
	rows, err := drainSized(ctx, s.Child, s.InputHint, nil)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return value.CompareRows(rows[i], rows[j], s.Keys, s.Desc) < 0
	})
	// Charge n·ceil(log2 n) comparison operations.
	n := len(rows)
	if n > 1 {
		lg := 0
		for v := n - 1; v > 0; v >>= 1 {
			lg++
		}
		ctx.Counter.CPUTuples += int64(n * lg)
	}
	s.rows = rows
	s.pos = 0
	return nil
}

// NextBatch implements Operator: emit the sorted rows a morsel at a
// time, charging one CPU operation per emitted row. (The n·log n sort
// charge happened in Open.)
func (s *Sort) NextBatch(ctx *Context, dst *Batch, max int) error {
	ctx.Counter.CPUTuples += int64(dst.AppendFrom(s.rows, &s.pos, max))
	return nil
}

// Close implements Operator.
func (s *Sort) Close(*Context) {}

// Limit passes through at most N rows.
type Limit struct {
	Child Operator
	N     int
	seen  int
	in    RowReader // Limit demands rows singly
}

// NewLimit builds a limit.
func NewLimit(child Operator, n int) *Limit { return &Limit{Child: child, N: n} }

// Schema implements Operator.
func (l *Limit) Schema() *schema.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *Context) error {
	l.seen = 0
	return l.Child.Open(ctx)
}

// NextBatch implements Operator. Limit demands rows singly (child
// budget 1): it is the only place a pipeline stops mid-stream, and any
// lookahead would charge the subtree for rows nobody consumes. The
// cascade of budget-1 pulls degenerates the subtree to row-at-a-time —
// which is also the right performance call, since every extra row
// produced below a saturated Limit is wasted work. A borrowing dst gets
// one row per call: the next pull may recycle it.
func (l *Limit) NextBatch(ctx *Context, dst *Batch, max int) error {
	l.in.one.Borrow = dst.Borrow
	for l.seen < l.N && len(dst.Rows) < max {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, ok, err := l.in.Read(ctx, l.Child)
		if err != nil || !ok {
			return err
		}
		dst.Rows = append(dst.Rows, r)
		l.seen++
		if dst.Borrow {
			return nil
		}
	}
	return nil
}

// Close implements Operator.
func (l *Limit) Close(ctx *Context) { l.Child.Close(ctx) }

// Materialize drains its child into a temporary table on first Open and
// thereafter scans the temporary. The build charges page writes; every
// scan (including the first) charges page reads. This is the operator
// behind ProductionCost_P when the optimizer decides to materialize the
// production set rather than recompute it.
type Materialize struct {
	Child Operator
	Name  string
	built *storage.Table
	scan  *TableScan
}

// NewMaterialize builds a materialization point named name.
func NewMaterialize(child Operator, name string) *Materialize {
	return &Materialize{Child: child, Name: name}
}

// Schema implements Operator.
func (m *Materialize) Schema() *schema.Schema { return m.Child.Schema() }

// Open implements Operator.
func (m *Materialize) Open(ctx *Context) error {
	if m.built == nil {
		t, err := MaterializeToTable(ctx, m.Child, m.Name)
		if err != nil {
			return err
		}
		m.built = t
	}
	m.scan = &TableScan{Table: m.built, alias: m.Child.Schema()}
	return m.scan.Open(ctx)
}

// NextBatch implements Operator by delegating to the embedded scan of
// the built temporary.
func (m *Materialize) NextBatch(ctx *Context, dst *Batch, max int) error {
	return m.scan.NextBatch(ctx, dst, max)
}

// Close implements Operator.
func (m *Materialize) Close(ctx *Context) {
	if m.scan != nil {
		m.scan.Close(ctx)
	}
}

// Built exposes the materialized table after the first Open (nil before).
func (m *Materialize) Built() *storage.Table { return m.built }
