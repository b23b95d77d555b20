// The pull protocol. Operators exchange morsel-sized slices of rows
// through NextBatch — the executor's only data path — so the virtual
// dispatch, the instrumentation bracket and the counter store are paid
// once per morsel rather than once per row per operator. The morsel size
// (Context.BatchSize) tunes that overhead and nothing else: rows, their
// order, and every cost.Counter total are the same at every size, 1
// included. Three rules make the output morsel-size invariant
// (DESIGN.md §9):
//
//   - Same units. An operator charges exactly its per-page and per-row
//     units however many rows a call handles — accumulated in int64
//     locals and flushed once per call, which is exact because counter
//     components are int64 and integer addition is associative.
//   - Flush before every return. An evaluation error mid-batch flushes
//     the charges accrued so far (including the failing row's, mirroring
//     operators that charge before evaluating) before propagating.
//   - Demand-bounded consumption. A streaming operator asks its child
//     for at most the output budget it was given, pipeline breakers
//     drain children at the context morsel size (they consume to end of
//     stream, so granularity cannot change totals), and Limit demands
//     rows singly — so a subtree is never charged for rows nobody asked
//     for, even when the stream is truncated mid-way.
//
// A fourth rule bounds how long a row lives, and with it what a query
// allocates:
//
//   - Borrowed rows live for one pull. A consumer that reads each row
//     only until its next NextBatch on that child, or its Close, sets
//     Borrow on its own carrier: GroupBy and StreamGroupBy, which fold
//     rows; Project, which copies its input; HashJoin's probe side,
//     whose row is dropped before the next pull. An operator that mints
//     rows — every join, through JoinEmitter, and Project — recycles its
//     arena at the top of each NextBatch into a borrowing dst, so a
//     steady-state pipeline allocates nothing per morsel. Select,
//     Distinct, Limit, Instrumented and the Filter Join pass child rows
//     through and forward their own dst's flag to the child (Limit then
//     hands rows over one per call, since its next pull would recycle
//     the one before). Every other consumer — Drain and the pipeline
//     breakers it serves (hash builds, merge and sort inputs), TopN,
//     Materialize, Ship, RowReader — leaves the flag clear and keeps
//     the rows it is given.
//
// A fifth rule says which buffers outlive an execution:
//
//   - Scratch outlives the execution in the engine's store
//     (Context.Scratch, a Store). Operators draw the slabs of recycling
//     arenas, morsel carriers, hash-build row slices and RowTable and
//     joinTable storage from it when they open or grow a buffer, and at
//     Close give back only what no live row can reference: the kept
//     slabs of an arena whose consumer borrows (after Close nothing
//     reads the rows of the last pull), carriers and build-row slices
//     (row headers, not rows) and hash tables. The slabs behind rows
//     that reach Drain, Result.Rows, a hash build, a sort or a
//     Materialize are never given back. A second Close gives nothing.
//
// Operators whose work is inherently per row (nested-loops, index and
// merge joins, Ship, the probe operators in udr) are written as one row
// step lifted by FillRows — the nested-loops family shares LoopJoin's —
// and read their children one row at a time through a RowReader. Every pull below them therefore has budget 1 whatever
// the morsel size, which keeps the network sends they issue in one
// global order — and that is what makes chaos fault schedules replay
// identically at every morsel size.
//
// The morsel size is a budget, never an allocation: the buffers morsels
// are pulled into are demand-sized (forEachBatch), so what a query
// allocates follows the rows it moves, not BatchSize.
package exec

import "filterjoin/internal/value"

// DefaultBatchSize is the morsel size used when no knob overrides it:
// large enough to amortize per-batch overhead to noise, small enough to
// keep a batch of row headers in cache.
const DefaultBatchSize = 1024

// EnvBatchSize is always DefaultBatchSize; bench/layers.go, its last user, prints it in the fingerprint.
func EnvBatchSize() int { return DefaultBatchSize }

// EnvKernels is always true; bench/layers.go, its last user, prints it in the fingerprint.
func EnvKernels() bool { return true }

// Batch is the unit of exchange between operators: a reusable carrier of
// up to one morsel of rows. The protocol:
//
//   - The caller Resets dst before every pull and passes a budget
//     max >= 1; the operator appends at most max rows.
//   - An empty dst after a nil-error return means end of stream. A
//     partial batch does NOT: filtering operators return early rather
//     than stall on a long run of non-qualifying rows.
//   - Rows appended to a batch are owned by the consumer until the next
//     Reset — unless the consumer set Borrow, when they stay valid only
//     until its next NextBatch on the same child. Operators never retain
//     aliases into a caller's batch.
type Batch struct {
	Rows []value.Row
	// Borrow is set by the consumer that owns the carrier when it reads
	// each delivered row only until its next pull (the package comment's
	// fourth rule); the operators that mint rows may then recycle them.
	Borrow bool
}

// NewBatch returns a batch with capacity for n rows.
func NewBatch(n int) Batch { return Batch{Rows: make([]value.Row, 0, n)} }

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Reset empties the batch, keeping its storage for reuse.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// Append adds one row.
func (b *Batch) Append(r value.Row) { b.Rows = append(b.Rows, r) }

// AppendFrom appends the next at most max rows of a buffered result,
// rows[*pos:], advances *pos past them and returns how many there were.
// It is the NextBatch of every operator that computed its output in
// Open.
func (b *Batch) AppendFrom(rows []value.Row, pos *int, max int) int {
	n := min(max, len(rows)-*pos)
	if n <= 0 {
		return 0
	}
	b.Rows = append(b.Rows, rows[*pos:*pos+n]...)
	*pos += n
	return n
}

// FillRows lifts a row step — a function returning the operator's next
// row, ok=false at end of stream — into the NextBatch protocol: it
// appends rows to dst until the budget is met or the stream ends. It is
// how the inherently row-at-a-time operators implement NextBatch.
func FillRows(ctx *Context, dst *Batch, max int, step func(*Context) (value.Row, bool, error)) error {
	for len(dst.Rows) < max {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, ok, err := step(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		dst.Rows = append(dst.Rows, r)
	}
	return nil
}

// RowReader reads a child one row at a time: each Read is a NextBatch
// pull with budget 1, so the child's subtree is consumed exactly on
// demand. The zero value is ready; it holds no stream state (only the
// one-row scratch, reused across re-Opens), so one reader may serve
// several children.
type RowReader struct{ one Batch }

// Read returns child's next row, ok=false at end of stream.
func (rr *RowReader) Read(ctx *Context, child Operator) (value.Row, bool, error) {
	rr.one.Reset()
	if err := child.NextBatch(ctx, &rr.one, 1); err != nil {
		return nil, false, err
	}
	if len(rr.one.Rows) == 0 {
		return nil, false, nil
	}
	return rr.one.Rows[0], true, nil
}

// firstMorselRows is the capacity a drain loop's morsel buffer starts
// with when the plan says nothing about its source.
const firstMorselRows = 64

// forEachBatch streams every morsel of an already-open operator into
// fn, polling for cancellation between morsels. The first error stops
// the stream. expect is the cardinality the caller's plan carries for op
// (0 = unknown) and sizes nothing but the buffer morsels are pulled
// into: it starts there, or small when the plan says nothing, and append
// grows it to the largest morsel op actually delivers — so a 30-row
// answer never pays for a morsel of row headers, and a large scan pays
// for them once; under a store it is drawn from and given back to the
// store. borrow sets the buffer's Borrow: fn must then drop
// every row before it returns.
func forEachBatch(ctx *Context, op Operator, expect int, borrow bool, fn func([]value.Row) error) error {
	n := max(ctx.BatchSize, 1)
	want := min(max(expect, firstMorselRows), n)
	b := Batch{Rows: ctx.Scratch.takeRows(want), Borrow: borrow}
	if b.Rows == nil {
		b.Rows = make([]value.Row, 0, want)
	}
	defer ctx.giveCarrier(&b)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.Reset()
		if err := op.NextBatch(ctx, &b, n); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		if err := fn(b.Rows); err != nil {
			return err
		}
	}
}

// forEachInput streams every row of an already-open child into fn; it
// is how pipeline breakers consume their build inputs. Charging stays
// with the caller's fn. The first fn error stops the stream. expect and
// borrow are forEachBatch's.
func forEachInput(ctx *Context, child Operator, expect int, borrow bool, fn func(value.Row) error) error {
	return forEachBatch(ctx, child, expect, borrow, func(rows []value.Row) error {
		for _, r := range rows {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	})
}
