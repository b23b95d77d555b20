// Intra-query parallelism in the style of Volcano's exchange operator
// (Graefe): parallelism is encapsulated in a small operator family —
// ParallelScan, Partition, Gather — so existing operators stay oblivious
// to threads. Two invariants hold by construction:
//
//   - Cost parity: workers charge exactly the per-page and per-row units
//     their serial counterparts charge, against a private worker Context;
//     partitioning, channel traffic, and merging charge nothing
//     (coordination is cost-free by convention). Merged totals are
//     therefore identical to a serial run of the same plan.
//   - Conservation: every worker counter is absorbed into the parent
//     context before the spawning operator's Open returns, inside that
//     operator's instrumentation bracket, so per-operator Self deltas
//     still sum exactly to the root counter.
//
// Worker pipelines run raw (non-instrumented) operators only: the
// Instrumented shim's parent/child stack is single-threaded state.
package exec

import (
	"errors"
	"sync"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// NewWorkerContext returns the private context a parallel worker charges
// against. Worker contexts carry no instrumentation state; their counter
// is folded into the parent with Absorb. The parent's cancellation
// context is inherited so a cancelled query stops its workers mid-morsel
// instead of leaking them until they drain their partitions.
func NewWorkerContext(parent *Context) *Context {
	w := NewContext()
	if parent != nil {
		w.Caller = parent.Caller
	}
	return w
}

// Absorb merges a worker context's counter into ctx. Spawning operators
// must call it for every worker before their Open (or Close) returns, so
// cost conservation holds at the moment execution finishes.
func (ctx *Context) Absorb(w *Context) { ctx.Counter.Add(*w.Counter) }

// clampDOP normalizes a degree-of-parallelism knob to at least 1.
func clampDOP(dop int) int {
	if dop < 1 {
		return 1
	}
	return dop
}

// partitionOf routes a row to one of dop partitions by hashing the key
// columns. The hash is deterministic (FNV over canonical values), so the
// assignment is stable across runs and GOMAXPROCS settings.
func partitionOf(r value.Row, keys []int, dop int) int {
	if dop <= 1 {
		return 0
	}
	return int(r.HashKey(keys) % uint64(dop))
}

// partitionRows splits rows into dop hash partitions by the key columns,
// preserving input order within each partition. Routing charges nothing.
func partitionRows(rows []value.Row, keys []int, dop int) [][]value.Row {
	parts := make([][]value.Row, dop)
	for _, r := range rows {
		p := partitionOf(r, keys, dop)
		parts[p] = append(parts[p], r)
	}
	return parts
}

// ParallelScan is a full table scan split into page-aligned morsels, one
// contiguous page range per worker. Each worker charges its private
// counter exactly as a serial TableScan would — one page read per page
// crossed, one CPU operation per row, plus one CPU operation per row for
// the optional pushed-down predicate (mirroring Select) — and buffers the
// surviving rows. Because morsels are contiguous and concatenated in
// range order, the output row sequence is identical to the serial
// TableScan(+Select) and the page-read total replicates exactly.
type ParallelScan struct {
	Table *storage.Table
	Pred  expr.Expr // optional pushed-down local predicate; may be nil
	DOP   int
	alias *schema.Schema
	rows  []value.Row
	pos   int
}

// NewParallelScan builds a morsel-parallel scan with dop workers. If
// alias is non-empty the output schema is re-qualified with it. pred,
// when non-nil, is evaluated by the scan workers (the parallel form of
// TableScan feeding Select).
func NewParallelScan(t *storage.Table, alias string, dop int, pred expr.Expr) *ParallelScan {
	s := t.Schema()
	if alias != "" {
		s = s.Rename(alias)
	}
	return &ParallelScan{Table: t, Pred: pred, DOP: clampDOP(dop), alias: s}
}

// Schema implements Operator.
func (s *ParallelScan) Schema() *schema.Schema { return s.alias }

// morselRange is one worker's contiguous [lo, hi) row range, page-aligned
// so the per-page read charge lands exactly where the serial scan's does.
type morselRange struct{ lo, hi int }

// morselRanges splits the table's pages across dop contiguous ranges.
func morselRanges(numRows, rowsPerPage, dop int) []morselRange {
	numPages := storage.PagesFor(numRows, rowsPerPage)
	if numPages < dop {
		dop = numPages
	}
	var out []morselRange
	for w := 0; w < dop; w++ {
		loPage := w * numPages / dop
		hiPage := (w + 1) * numPages / dop
		lo, hi := loPage*rowsPerPage, hiPage*rowsPerPage
		if hi > numRows {
			hi = numRows
		}
		if lo < hi {
			out = append(out, morselRange{lo: lo, hi: hi})
		}
	}
	return out
}

// scanMorsel runs one worker's share of the scan against its private
// context, charging exactly the serial TableScan(+Select) units —
// accumulated locally and flushed once per morsel, including ahead of a
// predicate error (the failing row's charges are already accrued,
// mirroring the serial charge-then-evaluate order).
func (s *ParallelScan) scanMorsel(wctx *Context, m morselRange) ([]value.Row, error) {
	var pages, cpu int64
	defer func() {
		wctx.Counter.PageReads += pages
		wctx.Counter.CPUTuples += cpu
	}()
	rpp := s.Table.RowsPerPage()
	var out []value.Row
	for pos := m.lo; pos < m.hi; pos++ {
		if pos%rpp == 0 {
			pages++
			// Poll at page granularity: cheap, and a cancelled query
			// abandons the morsel at the next page boundary.
			if err := wctx.Err(); err != nil {
				return out, err
			}
		}
		r := s.Table.Row(pos)
		cpu++
		if s.Pred != nil {
			cpu++
			keep, err := expr.EvalBool(s.Pred, r)
			if err != nil {
				return out, err
			}
			if !keep {
				continue
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// Open implements Operator: it fans the morsels out to DOP workers,
// waits, absorbs every worker counter in morsel order, and concatenates
// the buffered outputs in morsel order.
func (s *ParallelScan) Open(ctx *Context) error {
	s.Pred = expr.BindParams(s.Pred, ctx.Params) // before worker fan-out
	s.rows = nil
	s.pos = 0
	ranges := morselRanges(s.Table.NumRows(), s.Table.RowsPerPage(), s.DOP)
	if len(ranges) == 0 {
		return nil
	}
	wctxs := make([]*Context, len(ranges))
	outs := make([][]value.Row, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, m := range ranges {
		wctxs[i] = NewWorkerContext(ctx)
		wg.Add(1)
		go func(i int, m morselRange) {
			defer wg.Done()
			outs[i], errs[i] = s.scanMorsel(wctxs[i], m)
		}(i, m)
	}
	wg.Wait()
	var err error
	for i := range ranges {
		ctx.Absorb(wctxs[i])
		err = errors.Join(err, errs[i])
		s.rows = append(s.rows, outs[i]...)
	}
	if err != nil {
		s.rows = nil
		return err
	}
	return nil
}

// NextBatch implements Operator: emit the buffered rows a morsel at a
// time. All charging happened in Open's parallel phase; emission is
// coordination and charges nothing.
func (s *ParallelScan) NextBatch(_ *Context, dst *Batch, max int) error {
	dst.AppendFrom(s.rows, &s.pos, max)
	return nil
}

// Close implements Operator.
func (s *ParallelScan) Close(*Context) error {
	s.rows = nil
	return nil
}

// WorkerBuild constructs one worker's pipeline over its partition input.
// The input operator is raw (never instrumented) and charges nothing for
// re-emitting rows the upstream child already paid for; the pipeline's
// own operators charge the worker context exactly as they would serially.
type WorkerBuild func(part int, in Operator) Operator

// Partition hash-partitions its child's rows across DOP worker
// goroutines by the key columns. It is the fan-out half of the exchange:
// Gather (either variant) drives it and merges the worker outputs. The
// child is drained in the calling context, so an instrumented child
// attributes its own work normally; routing rows to partitions charges
// nothing.
type Partition struct {
	Child Operator
	Keys  []int
	DOP   int
}

// NewPartition builds the fan-out half of an exchange over the given key
// columns with dop workers.
func NewPartition(child Operator, keys []int, dop int) *Partition {
	return &Partition{Child: child, Keys: keys, DOP: clampDOP(dop)}
}

// partIn is the raw leaf a worker pipeline pulls from: its partition's
// rows, in child order. It tracks the ordinal (input position in the
// child's full stream) of the row most recently emitted so the
// order-preserving Gather can merge pipeline outputs back into child
// order. Re-emission charges nothing: the child already paid to produce
// these rows.
type partIn struct {
	sch  *schema.Schema
	rows []value.Row
	ords []int
	pos  int
	cur  int
}

func (p *partIn) Schema() *schema.Schema { return p.sch }
func (p *partIn) Open(*Context) error {
	p.pos = 0
	p.cur = -1
	return nil
}
func (p *partIn) NextBatch(_ *Context, dst *Batch, max int) error {
	if dst.AppendFrom(p.rows, &p.pos, max) > 0 {
		p.cur = p.ords[p.pos-1]
	}
	return nil
}
func (p *partIn) Close(*Context) error { return nil }

// taggedRow is one worker output row tagged with the ordinal of the
// input row that produced it.
type taggedRow struct {
	ord int
	row value.Row
}

// run drains the child, splits its rows into DOP partitions, runs one
// worker per non-empty partition through g.Build, absorbs every worker
// counter in partition order, and returns the per-partition outputs
// (each tagged with input ordinals, ascending within a partition).
func (g *Gather) run(ctx *Context) ([][]taggedRow, error) {
	p := g.Part
	rows, err := Drain(ctx, p.Child)
	if err != nil {
		return nil, err
	}
	dop := clampDOP(p.DOP)
	partRows := make([][]value.Row, dop)
	partOrds := make([][]int, dop)
	for ord, r := range rows {
		w := partitionOf(r, p.Keys, dop)
		partRows[w] = append(partRows[w], r)
		partOrds[w] = append(partOrds[w], ord)
	}
	sch := p.Child.Schema()
	outs := make([][]taggedRow, dop)
	errs := make([]error, dop)
	wctxs := make([]*Context, dop)
	var wg sync.WaitGroup
	for w := 0; w < dop; w++ {
		if len(partRows[w]) == 0 {
			continue
		}
		wctxs[w] = NewWorkerContext(ctx)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := &partIn{sch: sch, rows: partRows[w], ords: partOrds[w]}
			outs[w], errs[w] = runWorkerPipeline(wctxs[w], w, in, g.Build)
		}(w)
	}
	wg.Wait()
	err = nil
	for w := 0; w < dop; w++ {
		if wctxs[w] != nil {
			ctx.Absorb(wctxs[w])
		}
		err = errors.Join(err, errs[w])
	}
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// runWorkerPipeline executes one worker's pipeline over its partition
// input, reading it one row at a time so each output row can be tagged
// with the ordinal of the most recently consumed input row (exact for
// streaming pipelines, which is what the order-preserving merge
// requires).
func runWorkerPipeline(wctx *Context, part int, in *partIn, build WorkerBuild) ([]taggedRow, error) {
	var op Operator = in
	if build != nil {
		op = build(part, in)
	}
	if err := op.Open(wctx); err != nil {
		return nil, err
	}
	var out []taggedRow
	var rd RowReader
	for {
		if err := wctx.Err(); err != nil {
			return out, errors.Join(err, op.Close(wctx))
		}
		r, ok, err := rd.Read(wctx, op)
		if err != nil {
			return out, errors.Join(err, op.Close(wctx))
		}
		if !ok {
			break
		}
		out = append(out, taggedRow{ord: in.cur, row: r})
	}
	return out, op.Close(wctx)
}

// Gather is the fan-in half of the exchange: it runs its Partition's
// workers on Open and merges their output streams. The plain variant
// concatenates partitions in partition order; the order-preserving
// variant (NewGatherMerge) k-way-merges by input ordinal, reproducing
// the child's row order exactly, so any plan.Ordering the input carried
// survives the exchange. Both variants are deterministic.
type Gather struct {
	Part     *Partition
	Build    WorkerBuild // nil = identity pipeline
	Preserve bool
	out      *schema.Schema
	results  []value.Row
	pos      int
}

// NewGather builds an exchange that merges worker outputs in partition
// order (no order guarantee relative to the input).
func NewGather(p *Partition, build WorkerBuild) *Gather {
	return &Gather{Part: p, Build: build, out: gatherSchema(p, build)}
}

// NewGatherMerge builds the order-preserving exchange: worker outputs
// are merged back into the child's input order, so the input's physical
// ordering survives. Build must be a streaming row-wise pipeline (or
// nil) for the ordinal tags to be exact.
func NewGatherMerge(p *Partition, build WorkerBuild) *Gather {
	return &Gather{Part: p, Build: build, Preserve: true, out: gatherSchema(p, build)}
}

// gatherSchema probes the worker pipeline's output schema with an empty
// partition input.
func gatherSchema(p *Partition, build WorkerBuild) *schema.Schema {
	if build == nil {
		return p.Child.Schema()
	}
	return build(0, &partIn{sch: p.Child.Schema()}).Schema()
}

// Schema implements Operator.
func (g *Gather) Schema() *schema.Schema { return g.out }

// Open implements Operator: it drives the Partition (draining the child,
// running the workers, absorbing their counters) and merges the outputs.
func (g *Gather) Open(ctx *Context) error {
	g.results = nil
	g.pos = 0
	outs, err := g.run(ctx)
	if err != nil {
		return err
	}
	if g.Preserve {
		g.results = mergeByOrdinal(outs)
		return nil
	}
	for _, part := range outs {
		for _, t := range part {
			g.results = append(g.results, t.row)
		}
	}
	return nil
}

// mergeByOrdinal k-way-merges the per-partition outputs by input
// ordinal. Ordinals are ascending within each partition and no ordinal
// appears in two partitions, so the merge is total and deterministic.
func mergeByOrdinal(outs [][]taggedRow) []value.Row {
	n := 0
	for _, part := range outs {
		n += len(part)
	}
	merged := make([]value.Row, 0, n)
	pos := make([]int, len(outs))
	for len(merged) < n {
		best := -1
		for w := range outs {
			if pos[w] >= len(outs[w]) {
				continue
			}
			if best < 0 || outs[w][pos[w]].ord < outs[best][pos[best]].ord {
				best = w
			}
		}
		merged = append(merged, outs[best][pos[best]].row)
		pos[best]++
	}
	return merged
}

// NextBatch implements Operator: emit the merged rows a morsel at a
// time. They were produced and charged by the worker pipelines; emission
// is coordination and charges nothing.
func (g *Gather) NextBatch(_ *Context, dst *Batch, max int) error {
	dst.AppendFrom(g.results, &g.pos, max)
	return nil
}

// Close implements Operator.
func (g *Gather) Close(*Context) error {
	g.results = nil
	return nil
}
