package exec

import (
	"bytes"
	"slices"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// GroupBy is hash aggregation: it groups child rows by the key columns
// and computes the aggregate specs per group. Output rows are the group
// key columns followed by one column per aggregate, in a deterministic
// (sorted by group key) order. With no key columns it produces exactly
// one row over the whole input (scalar aggregation).
type GroupBy struct {
	Child    Operator
	GroupIdx []int
	Aggs     []expr.AggSpec // as planned; Open binds a copy
	// SizeHint pre-sizes the group hash table from the optimizer's output
	// cardinality estimate, InputHint the buffer the child is drained
	// through from its input estimate (0 = unknown).
	SizeHint, InputHint int
	out                 *schema.Schema
	aggs                []expr.AggSpec // Aggs under this execution's ctx.Params
	results             []value.Row
	pos                 int

	// Groups live in a RowTable over byte-encoded keys whose dense ids
	// index results (each group's output row, its key columns written
	// when the group starts, until Open puts them in output order) and
	// states (len(Aggs) states per group, in one slice); one scratch
	// buffer serves every key encoding. Output order is ascending byte
	// order of the encodings. The output rows are carved from rows, which
	// never recycles: they escape.
	ht     RowTable
	keyBuf []byte
	states []expr.AggState
	rows   value.RowArena
}

// NewGroupBy builds a hash aggregation operator. Output column names for
// aggregates come from each spec's Name (or its String() if empty).
func NewGroupBy(child Operator, groupIdx []int, aggs []expr.AggSpec) *GroupBy {
	return &GroupBy{
		Child:    child,
		GroupIdx: groupIdx,
		Aggs:     aggs,
		out:      aggSchema(child, groupIdx, aggs),
	}
}

// aggSchema is the output schema shared by both aggregation operators:
// the group key columns followed by one column per aggregate.
func aggSchema(child Operator, groupIdx []int, aggs []expr.AggSpec) *schema.Schema {
	in := child.Schema()
	cols := make([]schema.Column, 0, len(groupIdx)+len(aggs))
	for _, g := range groupIdx {
		cols = append(cols, in.Col(g))
	}
	for _, a := range aggs {
		name := a.Name
		if name == "" {
			name = a.String()
		}
		cols = append(cols, schema.Column{Name: name, Type: a.ResultType()})
	}
	return schema.New(cols...)
}

// Schema implements Operator.
func (g *GroupBy) Schema() *schema.Schema { return g.out }

// startGroup starts a group for r: its output row, holding r's key
// columns so far, and fresh states.
func (g *GroupBy) startGroup(r value.Row) {
	out := g.rows.Make(len(g.GroupIdx) + len(g.Aggs))
	for i, j := range g.GroupIdx {
		out[i] = r[j]
	}
	g.results = append(g.results, out)
	for _, a := range g.Aggs {
		g.states = append(g.states, expr.AggState{})
		g.states[len(g.states)-1].Init(a.Kind)
	}
}

// Open implements Operator.
func (g *GroupBy) Open(ctx *Context) error {
	g.aggs = expr.BindAggs(g.Aggs, ctx.Params)
	g.ht.initFrom(ctx.Scratch, g.SizeHint)
	nAgg := len(g.Aggs)
	if g.results == nil {
		g.results = ctx.Scratch.takeRows(g.SizeHint)
	}
	g.results = g.results[:0]
	if cap(g.states) < g.SizeHint*nAgg {
		g.states = make([]expr.AggState, 0, g.SizeHint*nAgg)
	}
	g.states = g.states[:0]
	g.rows.Reserve(g.SizeHint * (len(g.GroupIdx) + nAgg))
	if err := g.Child.Open(ctx); err != nil {
		return err
	}
	// The fold keeps no row (startGroup copies the key), so it borrows.
	err := forEachInput(ctx, g.Child, g.InputHint, true, func(r value.Row) error {
		ctx.Counter.CPUTuples++
		g.keyBuf = r.AppendKey(g.keyBuf[:0], g.GroupIdx)
		id, added := g.ht.Insert(g.keyBuf)
		if added {
			g.startGroup(r)
		}
		states := g.states[int(id)*nAgg : int(id+1)*nAgg]
		for i, a := range g.aggs {
			var v value.Value
			if a.Arg == nil {
				v = value.NewInt(1) // COUNT(*)
			} else {
				var err error
				v, err = a.Arg.Eval(r)
				if err != nil {
					return err
				}
			}
			if err := states[i].Add(v); err != nil {
				return err
			}
		}
		return nil
	})
	g.Child.Close(ctx)
	if err != nil {
		return err
	}
	// Scalar aggregation over an empty input still yields one row.
	if len(g.GroupIdx) == 0 && g.ht.Len() == 0 {
		g.ht.Insert(nil)
		g.startGroup(value.Row{})
	}
	for id, out := range g.results {
		for i := range g.Aggs {
			out[len(g.GroupIdx)+i] = g.states[id*nAgg+i].Result()
		}
	}
	ids := ctx.Scratch.ints(nil, g.ht.Len())
	for i := range g.ht.Len() {
		ids = append(ids, int32(i))
	}
	slices.SortFunc(ids, func(a, b int32) int { return bytes.Compare(g.ht.Key(a), g.ht.Key(b)) })
	permute(g.results, ids)
	g.ht.release()
	ctx.Scratch.giveInts(ids)
	g.pos = 0
	return nil
}

// permute puts rows in the order ids gives, rows[i] = old rows[ids[i]],
// in place: it follows each cycle of the permutation, marking the ids it
// has placed with -1.
func permute(rows []value.Row, ids []int32) {
	for i := range ids {
		if ids[i] < 0 {
			continue
		}
		first, j := rows[i], i
		for {
			k := int(ids[j])
			ids[j] = -1
			if k == i {
				rows[j] = first
				break
			}
			rows[j] = rows[k]
			j = k
		}
	}
}

// NextBatch implements Operator: emit the computed groups a morsel at a
// time, charging one CPU operation per emitted row.
func (g *GroupBy) NextBatch(ctx *Context, dst *Batch, max int) error {
	ctx.Counter.CPUTuples += int64(dst.AppendFrom(g.results, &g.pos, max))
	return nil
}

// Close implements Operator.
func (g *GroupBy) Close(ctx *Context) {
	ctx.Scratch.giveRows(g.results)
	g.results = nil
}

// StreamGroupBy is order-consuming aggregation: it requires its input to
// arrive with equal group keys adjacent (any sort direction), keeps the
// state of exactly one group at a time, and emits each group as soon as
// its run of rows ends. Unlike GroupBy it never materializes the group
// table, and its output preserves the input's group order.
type StreamGroupBy struct {
	Child    Operator
	GroupIdx []int
	Aggs     []expr.AggSpec // as planned; Open binds a copy
	out      *schema.Schema
	aggs     []expr.AggSpec // Aggs under this execution's ctx.Params

	// curKey and rowKey are reusable canonical-key buffers: rowKey holds
	// the current row's encoding and curKey the open group's, so the
	// per-row comparison allocates nothing (byte equality of encodings
	// equals string equality of the old map keys).
	curKey  []byte
	rowKey  []byte
	key     value.Row
	states  []*expr.AggState
	started bool
	done    bool
	in      Batch // scratch for child pulls
	ipos    int
}

// NewStreamGroupBy builds a streaming aggregation over grouped input.
func NewStreamGroupBy(child Operator, groupIdx []int, aggs []expr.AggSpec) *StreamGroupBy {
	return &StreamGroupBy{
		Child:    child,
		GroupIdx: groupIdx,
		Aggs:     aggs,
		out:      aggSchema(child, groupIdx, aggs),
	}
}

// Schema implements Operator.
func (g *StreamGroupBy) Schema() *schema.Schema { return g.out }

// Open implements Operator.
func (g *StreamGroupBy) Open(ctx *Context) error {
	g.aggs = expr.BindAggs(g.Aggs, ctx.Params)
	g.started = false
	g.done = false
	g.curKey = g.curKey[:0]
	g.rowKey = g.rowKey[:0]
	g.key = nil
	g.states = nil
	g.in.Reset()
	g.in.Borrow = true // begin copies the group key; no row outlives its pull
	g.ipos = 0
	return g.Child.Open(ctx)
}

func (g *StreamGroupBy) begin(r value.Row, key []byte) {
	g.curKey = append(g.curKey[:0], key...)
	g.key = r.Project(g.GroupIdx)
	g.states = make([]*expr.AggState, len(g.Aggs))
	for i, a := range g.Aggs {
		g.states[i] = expr.NewAggState(a.Kind)
	}
	g.started = true
}

func (g *StreamGroupBy) accumulate(r value.Row) error {
	for i, a := range g.aggs {
		var v value.Value
		if a.Arg == nil {
			v = value.NewInt(1) // COUNT(*)
		} else {
			var err error
			v, err = a.Arg.Eval(r)
			if err != nil {
				return err
			}
		}
		if err := g.states[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

func (g *StreamGroupBy) emit(ctx *Context) value.Row {
	ctx.Counter.CPUTuples++
	out := make(value.Row, 0, len(g.GroupIdx)+len(g.Aggs))
	out = append(out, g.key...)
	for _, st := range g.states {
		out = append(out, st.Result())
	}
	g.started = false
	return out
}

// NextBatch implements Operator: run the one-group state machine over
// buffered child batches. Child batches are bounded by the output
// budget, and the loop returns as soon as the budget is met, so
// consumption is demand-bounded — the only row consumed beyond the last
// emitted group is the boundary row that closed it.
func (g *StreamGroupBy) NextBatch(ctx *Context, dst *Batch, max int) error {
	if g.done {
		return nil
	}
	for len(dst.Rows) < max {
		if g.ipos >= len(g.in.Rows) {
			if err := ctx.Err(); err != nil {
				return err
			}
			ctx.takeCarrier(&g.in, max)
			g.in.Reset()
			g.ipos = 0
			if err := g.Child.NextBatch(ctx, &g.in, max); err != nil {
				return err
			}
			if g.in.Len() == 0 {
				g.done = true
				if g.started {
					dst.Rows = append(dst.Rows, g.emit(ctx))
				} else if len(g.GroupIdx) == 0 {
					// Scalar aggregation over an empty input still yields one row.
					g.begin(value.Row{}, nil)
					dst.Rows = append(dst.Rows, g.emit(ctx))
				}
				return nil
			}
		}
		r := g.in.Rows[g.ipos]
		g.ipos++
		ctx.Counter.CPUTuples++
		g.rowKey = r.AppendKey(g.rowKey[:0], g.GroupIdx)
		k := g.rowKey
		if g.started && !bytes.Equal(k, g.curKey) {
			dst.Rows = append(dst.Rows, g.emit(ctx))
			g.begin(r, k)
			if err := g.accumulate(r); err != nil {
				return err
			}
			continue
		}
		if !g.started {
			g.begin(r, k)
		}
		if err := g.accumulate(r); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Operator.
func (g *StreamGroupBy) Close(ctx *Context) {
	g.states = nil
	ctx.giveCarrier(&g.in)
	g.Child.Close(ctx)
}
