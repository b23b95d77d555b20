// Batch-at-a-time execution. The row engine's per-row Next calls cost a
// virtual dispatch, two instrumentation brackets, and a counter store per
// row per operator; at depth d a pipeline pays that d times per row. The
// batch engine amortizes all three: operators exchange morsel-sized
// slices of rows through NextBatch, charge the execution counter once
// per batch with locally accumulated deltas, and cross instrumentation
// brackets once per batch.
//
// Parity discipline (DESIGN.md §11): the batch engine must reproduce the
// row engine's cost.Counter totals bit for bit, per operator. Three rules
// guarantee it:
//
//   - Same units. A batch implementation charges exactly the per-page
//     and per-row units its row form charges — accumulated in int64
//     locals and flushed once per batch, which is exact because counter
//     components are int64 and integer addition is associative.
//   - Flush before every return. An evaluation error mid-batch flushes
//     the charges accrued so far (including the failing row's, mirroring
//     operators that charge before evaluating) before propagating.
//   - Demand-bounded consumption. A streaming operator asks its child
//     for at most the output budget it was given, pipeline breakers
//     drain children at the context batch size (they consume to end of
//     stream in both engines, so granularity cannot change totals), and
//     Limit demands rows singly — reproducing the row engine's
//     on-demand consumption exactly even when it truncates mid-stream.
//
// Operators that stay row-at-a-time (nested-loops and merge joins, the
// remote operators in dist, run-time Filter Join internals) compose
// through FillBatch's row shim: they keep charging per row, and because
// they pull their subtrees via Next in both engines, any network sends
// they issue keep their exact global order — which is what makes chaos
// fault schedules replay identically under both engines.
package exec

import (
	"os"
	"strconv"
	"sync"

	"filterjoin/internal/value"
)

// DefaultBatchSize is the morsel size used when no knob overrides it:
// large enough to amortize per-batch overhead to noise, small enough to
// keep a batch of row headers in cache.
const DefaultBatchSize = 1024

// envBatchSize parses the FILTERJOIN_BATCH environment variable once.
var envBatchSize = sync.OnceValue(func() int {
	if s := os.Getenv("FILTERJOIN_BATCH"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return DefaultBatchSize
})

// EnvBatchSize returns the process-wide default batch size: the value of
// FILTERJOIN_BATCH when set to a positive integer (1 selects the
// row-at-a-time engine), else DefaultBatchSize. CI runs the full suite
// at both 1 and 1024 to keep the engines interchangeable.
func EnvBatchSize() int { return envBatchSize() }

// EnvKernels is always true; bench/layers.go, its last user, prints it in the fingerprint.
func EnvKernels() bool { return true }

// Batch is the unit of exchange between batch-aware operators: a
// reusable carrier of up to one morsel of rows. The protocol:
//
//   - The caller Resets dst before every pull and passes a budget
//     max >= 1; the operator appends at most max rows.
//   - An empty dst after a nil-error return means end of stream. A
//     partial batch does NOT: filtering operators return early rather
//     than stall on a long run of non-qualifying rows.
//   - Rows appended to a batch are owned by the consumer until the next
//     Reset; operators never retain aliases into a caller's batch.
type Batch struct {
	Rows []value.Row
}

// NewBatch returns a batch with capacity for n rows.
func NewBatch(n int) Batch { return Batch{Rows: make([]value.Row, 0, n)} }

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Reset empties the batch, keeping its storage for reuse.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// Append adds one row.
func (b *Batch) Append(r value.Row) { b.Rows = append(b.Rows, r) }

// BatchOperator is implemented by operators with a native batch path.
// Operators without one still compose through FillBatch's row shim.
type BatchOperator interface {
	Operator
	// NextBatch appends up to max rows to dst (which the caller has
	// Reset). dst left empty signals end of stream.
	NextBatch(ctx *Context, dst *Batch, max int) error
}

// FillBatch pulls the next batch from op into dst: natively when op
// implements BatchOperator, otherwise by looping its row Next. It is the
// compatibility shim that lets row-at-a-time operators compose inside a
// batch pipeline (and vice versa) during and after the migration.
func FillBatch(ctx *Context, op Operator, dst *Batch, max int) error {
	if bo, ok := op.(BatchOperator); ok {
		return bo.NextBatch(ctx, dst, max)
	}
	for len(dst.Rows) < max {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, ok, err := op.Next(ctx)
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

// forEachInput streams every row of an already-open child into fn —
// batch-wise when the context batches (amortizing the per-row iterator
// dispatch pipeline breakers otherwise pay on their build inputs),
// row-wise otherwise. Charging stays with the caller's fn, so totals are
// identical either way. The first fn error stops the stream.
func forEachInput(ctx *Context, child Operator, fn func(value.Row) error) error {
	if ctx.BatchSize > 1 {
		b := NewBatch(ctx.BatchSize)
		for {
			b.Reset()
			if err := FillBatch(ctx, child, &b, ctx.BatchSize); err != nil {
				return err
			}
			if b.Len() == 0 {
				return nil
			}
			for _, r := range b.Rows {
				if err := fn(r); err != nil {
					return err
				}
			}
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, ok, err := child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(r); err != nil {
			return err
		}
	}
}
