package exec

import (
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// JoinEmitter is the one place a join turns a candidate pair into an
// output row. The pair is laid out in a reusable scratch row, the
// residual is evaluated there through the compiled predicate, and only a
// survivor is materialized, arena-backed — a rejected candidate costs
// two copies and no allocation, and under a borrowing consumer a
// survivor reuses the slabs of the last pull. The emitter charges
// nothing: operators bill each candidate before offering it. The zero
// value is ready, and nothing carries over between executions: scratch
// is rewritten before every read.
type JoinEmitter struct {
	scratch value.Row
	arena   value.RowArena
}

// recycle rewinds the survivors' arena when dst borrows: the rows of
// the emitter's last call are dead once its consumer pulls again.
func (e *JoinEmitter) recycle(ctx *Context, dst *Batch) {
	if dst.Borrow {
		e.arena.Recycle(ctx.slabs())
	}
}

// Release gives the slabs of a recycling emitter back to the store; the
// owning join calls it at Close.
func (e *JoinEmitter) Release() { e.arena.Release() }

// Emit returns l‖r if it passes residual (nil passes everything), with
// expr.EvalBool's verdicts and errors.
func (e *JoinEmitter) Emit(residual *expr.Pred, l, r value.Row) (value.Row, bool, error) {
	if residual == nil {
		return e.arena.Concat(l, r), true, nil
	}
	e.scratch = append(append(e.scratch[:0], l...), r...)
	keep, err := residual.EvalRow(e.scratch)
	if err != nil || !keep {
		return nil, false, err
	}
	out := e.arena.Make(len(e.scratch))
	copy(out, e.scratch)
	return out, true, nil
}

// LoopJoin is the row step every nested-loops join shares — the general
// theta join here, the index probe join below (local or remote), the
// function probe joins in udr: read an outer row, start its inner, offer
// every inner row to the emitter as a candidate (one CPU operation
// each), move to the next outer row when the inner runs dry.
type LoopJoin struct {
	JoinEmitter
	in   RowReader // the outer is read one row at a time
	cur  value.Row
	done bool
}

// Reset rewinds the loop; operators call it at Open.
func (l *LoopJoin) Reset() {
	l.cur = nil
	l.done = false
}

// Rewound reports whether the loop is where Reset leaves it: no outer
// row held and the end-of-stream latch clear.
func (l *LoopJoin) Rewound() bool { return l.cur == nil && !l.done }

// Fill implements NextBatch for the owning operator. start positions
// the inner for an outer row; inner returns the inner's next row,
// ok=false once it is exhausted.
func (l *LoopJoin) Fill(ctx *Context, dst *Batch, max int, outer Operator, residual *expr.Pred,
	start func(*Context, value.Row) error, inner func(*Context) (value.Row, bool, error)) error {
	l.recycle(ctx, dst)
	return FillRows(ctx, dst, max, func(ctx *Context) (value.Row, bool, error) {
		for !l.done {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			if l.cur == nil {
				r, ok, err := l.in.Read(ctx, outer)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					l.done = true
					break
				}
				if err := start(ctx, r); err != nil {
					return nil, false, err
				}
				l.cur = r
			}
			ir, ok, err := inner(ctx)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				l.cur = nil
				continue
			}
			ctx.Counter.CPUTuples++
			if row, keep, err := l.Emit(residual, l.cur, ir); err != nil || keep {
				return row, keep, err
			}
		}
		return nil, false, nil
	})
}

// NestedLoopJoin is the general theta join: for every outer row the inner
// is re-opened and fully consumed, with the (optional) predicate evaluated
// against each candidate pair. Because the inner's own operators re-charge
// their costs on every re-open, this operator naturally exhibits the
// quadratic I/O behaviour the optimizer's NL cost formula describes.
type NestedLoopJoin struct {
	Outer, Inner Operator
	Pred         *expr.Pred // over Outer.Schema().Concat(Inner.Schema()); may be nil
	out          *schema.Schema
	loop         LoopJoin
	innerOpen    bool
}

// NewNestedLoopJoin builds a nested-loops join.
func NewNestedLoopJoin(outer, inner Operator, pred expr.Expr) *NestedLoopJoin {
	return &NestedLoopJoin{
		Outer: outer,
		Inner: inner,
		Pred:  expr.CompilePred(pred),
		out:   outer.Schema().Concat(inner.Schema()),
	}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *schema.Schema { return j.out }

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx *Context) error {
	j.Pred.Bind(ctx.Params)
	j.loop.Reset()
	j.innerOpen = false
	return j.Outer.Open(ctx)
}

// NextBatch implements Operator.
func (j *NestedLoopJoin) NextBatch(ctx *Context, dst *Batch, max int) error {
	return j.loop.Fill(ctx, dst, max, j.Outer, j.Pred, j.openInner, j.nextInner)
}

// openInner re-opens the inner for the next outer row.
func (j *NestedLoopJoin) openInner(ctx *Context, _ value.Row) error {
	if err := j.Inner.Open(ctx); err != nil {
		return err
	}
	j.innerOpen = true
	return nil
}

// nextInner reads the inner's next row, closing it when it runs dry.
func (j *NestedLoopJoin) nextInner(ctx *Context) (value.Row, bool, error) {
	ir, ok, err := j.loop.in.Read(ctx, j.Inner)
	if err != nil || ok {
		return ir, ok, err
	}
	j.innerOpen = false
	j.Inner.Close(ctx)
	return nil, false, nil
}

// Close implements Operator.
func (j *NestedLoopJoin) Close(ctx *Context) {
	j.loop.Release()
	if j.innerOpen {
		j.Inner.Close(ctx)
		j.innerOpen = false
	}
	j.Outer.Close(ctx)
}

// HashJoin builds a hash table over the left input's key columns on Open,
// then streams the right input, probing per row. An optional residual
// predicate is evaluated against left‖right. The build and each probe
// charge one CPU operation per row.
type HashJoin struct {
	Left, Right         Operator // Left is the build side
	LeftKeys, RightKeys []int
	Residual            *expr.Pred // over the emitted layout; may be nil
	// EmitProbeFirst emits probe‖build (right‖left) instead of the default
	// build‖probe layout; the optimizer uses it to keep the "outer columns
	// first" convention while building on the inner.
	EmitProbeFirst bool
	// BuildSizeHint pre-sizes the hash table from the optimizer's build-side
	// cardinality estimate (0 = unknown).
	BuildSizeHint int
	out           *schema.Schema
	tab           joinTable
	probe         value.Row
	chain         int32 // cursor into the current probe row's bucket chain (-1 = exhausted)
	pbuf          Batch // scratch for probe-side pulls
	ppos          int
	em            JoinEmitter
}

// NewHashJoin builds a hash equi-join; left is the build side and the
// output layout is left‖right. Residual is bound against that layout.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int, residual expr.Expr) *HashJoin {
	return &HashJoin{
		Left:      left,
		Right:     right,
		LeftKeys:  leftKeys,
		RightKeys: rightKeys,
		Residual:  expr.CompilePred(residual),
		out:       left.Schema().Concat(right.Schema()),
	}
}

// NewHashJoinProbeFirst builds a hash equi-join that still builds on
// left but emits right‖left. Residual is bound against that layout.
func NewHashJoinProbeFirst(left, right Operator, leftKeys, rightKeys []int, residual expr.Expr) *HashJoin {
	return &HashJoin{
		Left:           left,
		Right:          right,
		LeftKeys:       leftKeys,
		RightKeys:      rightKeys,
		Residual:       expr.CompilePred(residual),
		EmitProbeFirst: true,
		out:            right.Schema().Concat(left.Schema()),
	}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *schema.Schema { return j.out }

// Open implements Operator.
func (j *HashJoin) Open(ctx *Context) error {
	j.Residual.Bind(ctx.Params)
	j.probe = nil
	j.chain = -1
	j.pbuf.Reset()
	j.pbuf.Borrow = true // the probe row is dropped before the next pull
	j.ppos = 0
	rows, err := drainSized(ctx, j.Left, j.BuildSizeHint, ctx.Scratch.takeRows(j.BuildSizeHint))
	if err != nil {
		return err
	}
	j.tab.build(ctx.Scratch, rows, j.LeftKeys, j.BuildSizeHint)
	ctx.Counter.CPUTuples += int64(len(rows))
	return j.Right.Open(ctx)
}

// emitHashed offers a hash join's build row l and probe row r in the
// configured layout.
func (e *JoinEmitter) emitHashed(residual *expr.Pred, probeFirst bool, l, r value.Row) (value.Row, bool, error) {
	if probeFirst {
		l, r = r, l
	}
	return e.Emit(residual, l, r)
}

// NextBatch implements Operator: drain the pending bucket, then consume
// probe rows from a buffered child batch. The probe buffer is refilled
// only while dst is still empty — once the batch holds output, a dry
// buffer returns it instead of pulling more probe rows, so the child is
// never charged for rows a truncating consumer (Limit) did not demand.
// Charges are one CPU operation per probe row and per bucket candidate,
// accumulated locally and flushed once per call (including before
// residual errors).
func (j *HashJoin) NextBatch(ctx *Context, dst *Batch, max int) error {
	j.em.recycle(ctx, dst)
	var cpu int64
	defer func() { ctx.Counter.CPUTuples += cpu }()
	for {
		for j.chain >= 0 {
			if len(dst.Rows) >= max {
				return nil
			}
			var l value.Row
			l, j.chain = j.tab.pop(j.chain)
			cpu++
			joined, keep, err := j.em.emitHashed(j.Residual, j.EmitProbeFirst, l, j.probe)
			if err != nil {
				return err
			}
			if keep {
				dst.Rows = append(dst.Rows, joined)
			}
		}
		if len(dst.Rows) >= max {
			return nil
		}
		if j.ppos >= len(j.pbuf.Rows) {
			if len(dst.Rows) > 0 {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			ctx.takeCarrier(&j.pbuf, max)
			j.pbuf.Reset()
			j.ppos = 0
			if err := j.Right.NextBatch(ctx, &j.pbuf, max); err != nil {
				return err
			}
			if j.pbuf.Len() == 0 {
				return nil
			}
		}
		j.probe = j.pbuf.Rows[j.ppos]
		j.ppos++
		cpu++
		j.chain = j.tab.probe(j.probe, j.RightKeys)
	}
}

// Close implements Operator.
func (j *HashJoin) Close(ctx *Context) {
	j.em.Release()
	j.tab.release()
	ctx.giveCarrier(&j.pbuf)
	j.Right.Close(ctx)
}

// MergeJoin equi-joins two inputs that it sorts on Open (charging sort
// CPU), then merges, handling duplicate key groups on both sides. An
// input already sorted on its keys ascending can be declared presorted,
// which skips that side's sort entirely — the optimizer uses this when
// a retained interesting order covers the merge keys.
type MergeJoin struct {
	Left, Right                   Operator
	LeftKeys, RightKeys           []int
	Residual                      *expr.Pred // over left‖right; may be nil
	LeftPresorted, RightPresorted bool
	out                           *schema.Schema
	em                            JoinEmitter

	lrows, rrows []value.Row
	li, ri       int
	groupL       []value.Row // current left key group
	groupRStart  int
	gi, gj       int
	inGroup      bool
}

// NewMergeJoin builds a sort-merge equi-join.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []int, residual expr.Expr) *MergeJoin {
	return &MergeJoin{
		Left:      left,
		Right:     right,
		LeftKeys:  leftKeys,
		RightKeys: rightKeys,
		Residual:  expr.CompilePred(residual),
		out:       left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *MergeJoin) Schema() *schema.Schema { return j.out }

// NewMergeJoinPresorted builds a sort-merge equi-join that trusts the
// flagged inputs to arrive sorted on their keys ascending.
func NewMergeJoinPresorted(left, right Operator, leftKeys, rightKeys []int, residual expr.Expr, leftPresorted, rightPresorted bool) *MergeJoin {
	j := NewMergeJoin(left, right, leftKeys, rightKeys, residual)
	j.LeftPresorted, j.RightPresorted = leftPresorted, rightPresorted
	return j
}

// mergeInput drains one side, sorting it unless declared presorted.
func mergeInput(ctx *Context, child Operator, keys []int, presorted bool) ([]value.Row, error) {
	if presorted {
		return Drain(ctx, child)
	}
	return Drain(ctx, NewSort(child, keys, nil))
}

// Open implements Operator.
func (j *MergeJoin) Open(ctx *Context) error {
	j.Residual.Bind(ctx.Params)
	var err error
	j.lrows, err = mergeInput(ctx, j.Left, j.LeftKeys, j.LeftPresorted)
	if err != nil {
		return err
	}
	j.rrows, err = mergeInput(ctx, j.Right, j.RightKeys, j.RightPresorted)
	if err != nil {
		return err
	}
	j.li, j.ri = 0, 0
	j.groupL = nil
	j.groupRStart = 0
	j.gi, j.gj = 0, 0
	j.inGroup = false
	return nil
}

func keyCompare(a, b value.Row, ak, bk []int) int {
	for i := range ak {
		c := value.Compare(a[ak[i]], b[bk[i]])
		if c != 0 {
			return c
		}
	}
	return 0
}

// NextBatch implements Operator by lifting the row step.
func (j *MergeJoin) NextBatch(ctx *Context, dst *Batch, max int) error {
	j.em.recycle(ctx, dst)
	return FillRows(ctx, dst, max, j.next)
}

// next produces one joined row of the merge.
func (j *MergeJoin) next(ctx *Context) (value.Row, bool, error) {
	for {
		if j.inGroup {
			if j.gi < len(j.groupL) {
				rIdx := j.groupRStart + j.gj
				if rIdx < len(j.rrows) && keyCompare(j.groupL[0], j.rrows[rIdx], j.LeftKeys, j.RightKeys) == 0 {
					ctx.Counter.CPUTuples++
					j.gj++
					joined, keep, err := j.em.Emit(j.Residual, j.groupL[j.gi], j.rrows[rIdx])
					if err != nil || keep {
						return joined, keep, err
					}
					continue
				}
				// Exhausted right group for this left row; advance left row.
				j.gi++
				j.gj = 0
				continue
			}
			// Group done: move right cursor past the group, leave left as is.
			for j.groupRStart < len(j.rrows) &&
				keyCompare(j.groupL[0], j.rrows[j.groupRStart], j.LeftKeys, j.RightKeys) == 0 {
				j.groupRStart++
			}
			j.ri = j.groupRStart
			j.inGroup = false
		}
		if j.li >= len(j.lrows) || j.ri >= len(j.rrows) {
			return nil, false, nil
		}
		ctx.Counter.CPUTuples++
		c := keyCompare(j.lrows[j.li], j.rrows[j.ri], j.LeftKeys, j.RightKeys)
		switch {
		case c < 0:
			j.li++
		case c > 0:
			j.ri++
		case nullKey(j.lrows[j.li], j.LeftKeys):
			j.li++ // equal on a NULL, which matches nothing
		default:
			// Collect the left group sharing this key.
			start := j.li
			for j.li < len(j.lrows) &&
				keyCompare(j.lrows[start], j.lrows[j.li], j.LeftKeys, j.LeftKeys) == 0 {
				j.li++
			}
			j.groupL = j.lrows[start:j.li]
			j.groupRStart = j.ri
			j.gi, j.gj = 0, 0
			j.inGroup = true
		}
	}
}

// Close implements Operator.
func (j *MergeJoin) Close(*Context) {
	j.em.Release()
	j.lrows, j.rrows = nil, nil
}

// IndexNLJoin drives an index-nested-loops join: for every outer row it
// probes a hash index on the inner stored table. Each probe charges one
// page read (the index) plus one page read per distinct data page holding
// matches. This is the "repeated probe" row of the paper's Fig 6 taxonomy
// for stored relations, local or remote: against a table at a remote
// site (Site > 0) it is the System R* "fetch matches as needed"
// strategy, and each probe is a round trip — the key goes out as one
// message (the fallible crossing), the matching rows come back.
type IndexNLJoin struct {
	Outer       Operator
	Table       *storage.Table
	Index       *storage.HashIndex
	OuterKeyIdx []int      // key columns within the outer row, aligned with Index.Cols()
	Residual    *expr.Pred // over Outer.Schema().Concat(inner schema); may be nil
	InnerAlias  string
	Site        int // the site holding Table; 0 = local
	out         *schema.Schema
	innerSch    *schema.Schema
	keyBytes    int // bytes of one probe's key message; 0 when local
	rowBytes    int // bytes of one shipped match; 0 when local
	loop        LoopJoin
	ids         []int
	pos         int
}

// NewIndexNLJoin builds an index nested-loops join against the table at
// site (0 = local).
func NewIndexNLJoin(outer Operator, t *storage.Table, ix *storage.HashIndex, outerKeyIdx []int, residual expr.Expr, innerAlias string, site int) *IndexNLJoin {
	is := t.Schema()
	if innerAlias != "" {
		is = is.Rename(innerAlias)
	}
	j := &IndexNLJoin{
		Outer:       outer,
		Table:       t,
		Index:       ix,
		OuterKeyIdx: outerKeyIdx,
		Residual:    expr.CompilePred(residual),
		InnerAlias:  innerAlias,
		Site:        site,
		innerSch:    is,
		out:         outer.Schema().Concat(is),
	}
	if site > 0 {
		for _, c := range ix.Cols() {
			j.keyBytes += t.Schema().Col(c).Type.Width()
		}
		j.rowBytes = t.Schema().RowWidth()
	}
	return j
}

// Schema implements Operator.
func (j *IndexNLJoin) Schema() *schema.Schema { return j.out }

// Open implements Operator.
func (j *IndexNLJoin) Open(ctx *Context) error {
	j.Residual.Bind(ctx.Params)
	j.loop.Reset()
	j.ids = nil
	j.pos = 0
	return j.Outer.Open(ctx)
}

// NextBatch implements Operator.
func (j *IndexNLJoin) NextBatch(ctx *Context, dst *Batch, max int) error {
	return j.loop.Fill(ctx, dst, max, j.Outer, j.Residual, j.probe, j.match)
}

// probe looks outer row r up in the index; a NULL key matches nothing
// and is not looked up (nor, remotely, sent). A remote probe sends the
// key first, and the matches it fetches charge their bytes once the
// lookup resolves.
func (j *IndexNLJoin) probe(ctx *Context, r value.Row) error {
	j.ids, j.pos = nil, 0
	if nullKey(r, j.OuterKeyIdx) {
		return nil
	}
	if j.Site > 0 {
		if err := ctx.Send(j.Site, int64(j.keyBytes)); err != nil {
			return err
		}
	}
	ctx.Counter.PageReads++ // index probe
	j.ids = j.Index.LookupRow(r, j.OuterKeyIdx)
	ctx.Counter.PageReads += int64(storage.ProbePages(j.ids, j.Table.RowsPerPage()))
	ctx.Counter.NetBytes += int64(len(j.ids) * j.rowBytes)
	return nil
}

// match returns the current outer row's next index match.
func (j *IndexNLJoin) match(*Context) (value.Row, bool, error) {
	if j.pos >= len(j.ids) {
		return nil, false, nil
	}
	j.pos++
	return j.Table.Row(j.ids[j.pos-1]), true, nil
}

// Close implements Operator. It clears the match cursor so a
// Close→reOpen cycle — e.g. after a mid-stream residual-eval error —
// cannot replay stale match state from the aborted run; Open performs
// the same reset, but an operator must also be safe to inspect or
// re-wrap between Close and the next Open.
func (j *IndexNLJoin) Close(ctx *Context) {
	j.loop.Release()
	j.loop.Reset()
	j.ids = nil
	j.pos = 0
	j.Outer.Close(ctx)
}
