// Package dist is the distributed-database substrate: operators that
// model data crossing the network between sites. There is no real
// network — rows live in local memory — but every crossing charges
// NetBytes and NetMsgs against the cost counter, which is all the
// semi-join vs fetch-matches vs ship-whole tradeoff (paper §5.1, SDD-1
// vs System R*) depends on.
//
// The operators here are deliberately row-at-a-time: each is one row
// step lifted by exec.FillRows. FetchMatchesJoin issues one transport
// Send per outer row from inside its step, so its per-row granularity
// IS the fault schedule a chaos transport walks. Because these
// operators read their subtrees through an exec.RowReader (budget 1)
// whatever the morsel size, the global send sequence — and with it the
// injected drops, latencies, and outages — replays identically at every
// morsel size (exec/batch.go).
package dist

import (
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// Ship moves its child's entire output stream across the network: one
// message per Open plus rowBytes per row. It models both "ship the whole
// inner to the query site" and "ship the filtered inner back" legs.
type Ship struct {
	Child    Operator
	RowBytes int
	Site     int            // the remote site the stream crosses from
	in       exec.RowReader // the child is read one row at a time
}

// Operator aliases exec.Operator for readability within this package.
type Operator = exec.Operator

// NewShip wraps child in a network shipment of rowBytes per row from
// the given site.
func NewShip(child Operator, rowBytes, site int) *Ship {
	return &Ship{Child: child, RowBytes: rowBytes, Site: site}
}

// Schema implements exec.Operator.
func (s *Ship) Schema() *schema.Schema { return s.Child.Schema() }

// Open implements exec.Operator.
//
// The stream-open message is charged only after the child opens: a
// failed child open consumed no network, and charging first would leave
// a phantom NetMsg that breaks cost conservation on error paths. When
// the message itself fails (chaos transport out of retries), the child
// is closed again before the error propagates, because callers do not
// Close an operator whose Open failed.
func (s *Ship) Open(ctx *exec.Context) error {
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	if err := Send(ctx, s.Site, 0); err != nil {
		s.Child.Close(ctx)
		return err
	}
	return nil
}

// NextBatch implements exec.Operator by lifting the row step.
func (s *Ship) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return exec.FillRows(ctx, dst, max, s.next)
}

// next ships one child row.
func (s *Ship) next(ctx *exec.Context) (value.Row, bool, error) {
	r, ok, err := s.in.Read(ctx, s.Child)
	if err != nil || !ok {
		return nil, false, err
	}
	ctx.Counter.NetBytes += int64(s.RowBytes)
	ctx.Counter.CPUTuples++
	return r, true, nil
}

// Close implements exec.Operator.
func (s *Ship) Close(ctx *exec.Context) { s.Child.Close(ctx) }

// FetchMatchesJoin is the System R* "fetch matches as needed" strategy:
// for every outer row, send the join key to the remote site (one message
// plus key bytes), probe an index there (remote page reads), and ship
// the matching rows back (row bytes). The inner table must have a hash
// index on the join key.
type FetchMatchesJoin struct {
	Outer       Operator
	Table       *storage.Table
	Index       *storage.HashIndex
	OuterKeyIdx []int
	Residual    *expr.Pred // over Outer.Schema()‖inner schema; may be nil
	InnerAlias  string
	Site        int // the remote site holding Table

	innerSch *schema.Schema
	out      *schema.Schema
	keyBytes int
	rowBytes int
	loop     exec.LoopJoin
	ids      []int
	pos      int
}

// NewFetchMatchesJoin builds the remote repeated-probe join against the
// table at the given site.
func NewFetchMatchesJoin(outer Operator, t *storage.Table, ix *storage.HashIndex, outerKeyIdx []int, residual expr.Expr, innerAlias string, site int) *FetchMatchesJoin {
	is := t.Schema()
	if innerAlias != "" {
		is = is.Rename(innerAlias)
	}
	keyBytes := 0
	for _, c := range ix.Cols() {
		keyBytes += t.Schema().Col(c).Type.Width()
	}
	return &FetchMatchesJoin{
		Outer:       outer,
		Table:       t,
		Index:       ix,
		OuterKeyIdx: outerKeyIdx,
		Residual:    expr.CompilePred(residual),
		InnerAlias:  innerAlias,
		Site:        site,
		innerSch:    is,
		out:         outer.Schema().Concat(is),
		keyBytes:    keyBytes,
		rowBytes:    t.Schema().RowWidth(),
	}
}

// Schema implements exec.Operator.
func (j *FetchMatchesJoin) Schema() *schema.Schema { return j.out }

// Open implements exec.Operator.
func (j *FetchMatchesJoin) Open(ctx *exec.Context) error {
	j.Residual.Bind(ctx.Params)
	j.loop.Reset()
	j.ids = nil
	j.pos = 0
	return j.Outer.Open(ctx)
}

// NextBatch implements exec.Operator.
func (j *FetchMatchesJoin) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return j.loop.Fill(ctx, dst, max, j.Outer, j.Residual, j.fetch, j.match)
}

// fetch makes the round trip for outer row r: key goes out, matches come
// back. The key message is the fallible crossing; the response charges
// once the probe resolves.
func (j *FetchMatchesJoin) fetch(ctx *exec.Context, r value.Row) error {
	j.ids, j.pos = nil, 0
	for _, k := range j.OuterKeyIdx {
		if r[k].IsNull() {
			return nil // a NULL key matches nothing: no round trip
		}
	}
	if err := Send(ctx, j.Site, int64(j.keyBytes)); err != nil {
		return err
	}
	ctx.Counter.PageReads++ // remote index probe
	j.ids = j.Index.LookupRow(r, j.OuterKeyIdx)
	ctx.Counter.PageReads += int64(storage.ProbePages(j.ids, j.Table.RowsPerPage()))
	ctx.Counter.NetBytes += int64(len(j.ids) * j.rowBytes)
	return nil
}

// match returns the current outer row's next fetched match.
func (j *FetchMatchesJoin) match(*exec.Context) (value.Row, bool, error) {
	if j.pos >= len(j.ids) {
		return nil, false, nil
	}
	j.pos++
	return j.Table.Row(j.ids[j.pos-1]), true, nil
}

// Close implements exec.Operator. It clears the match cursor so a
// Close→reOpen cycle — e.g. after a mid-stream residual-eval error —
// cannot replay stale match state from the aborted run; Open performs
// the same reset, but an operator must also be safe to inspect or
// re-wrap between Close and the next Open.
func (j *FetchMatchesJoin) Close(ctx *exec.Context) {
	j.loop.Reset()
	j.ids = nil
	j.pos = 0
	j.Outer.Close(ctx)
}
