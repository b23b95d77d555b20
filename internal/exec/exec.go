// Package exec implements the Volcano-style (Open/NextBatch/Close) iterator
// executor. Every operator charges its resource consumption — page reads
// and writes, per-tuple CPU work, network traffic, function invocations —
// against the cost.Counter in the execution Context, so any plan's true
// cost can be measured and compared with the optimizer's estimate.
//
// Conventions:
//   - Base-table scans charge one page read per page crossed.
//   - In-memory operations (hashing, comparing, copying a tuple) charge
//     CPU tuple operations.
//   - Materialization charges page writes on build and page reads on
//     subsequent scans.
//   - Operators are restartable: Open resets all state, so nested-loops
//     joins may re-Open their inner arbitrarily often.
package exec

import (
	"context"
	"fmt"

	"filterjoin/internal/cost"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// Context carries per-execution state: the cost counter every operator
// charges, and the instrumentation registry maintained by Instrumented
// shims.
type Context struct {
	Counter *cost.Counter

	// Net is the transport remote crossings route through. nil means the
	// free, instant, lossless network every local-only execution uses.
	Net Transport

	// Caller is the caller's cancellation context, if any. Operators and
	// drain loops poll Err between morsels to abandon work after
	// cancellation or deadline, so cancellation granularity is one morsel.
	Caller context.Context

	// BatchSize is the morsel size: drain loops and pipeline breakers
	// pull up to this many rows per NextBatch call (0 counts as 1). It
	// tunes dispatch overhead only — rows, order and counter totals are
	// identical at every setting (see batch.go).
	BatchSize int

	// Params are the bind-parameter values for this execution. Operators
	// holding expressions substitute them at Open via expr.BindParams, so
	// a plan cached from one statement can execute any binding in its
	// selectivity class. Empty for non-parameterized plans.
	Params []value.Value

	// Kernels is read by nothing; bench/layers.go, its last user, still assigns it.
	Kernels bool

	// Scratch is the store operators draw scratch buffers from and give
	// them back to at Close, so they outlive this execution (batch.go's
	// fifth rule). nil — every context the engine did not make — keeps
	// nothing: each execution allocates its own.
	Scratch *Store

	// bound maps a planned table to the table this execution scans in
	// its place (see Bind). nil until the first Bind.
	bound map[*storage.Table]*storage.Table

	// ops collects the stats block of every Instrumented shim that ran
	// under this context, in first-Open order.
	ops []*OpStats
	// stack tracks the shims currently inside a call, for parent/child
	// cost attribution.
	stack []*Instrumented
}

// NewContext returns a context with a fresh counter.
func NewContext() *Context {
	return &Context{Counter: &cost.Counter{}, Kernels: true}
}

// Bind makes every TableScan planned over placeholder scan t instead,
// from its next Open on. It is how a cached sub-plan reads per-execution
// data: the Filter Join plans its restricted view once over a row-less
// filter-set table and binds each execution's actual F to it, the way
// IndexLookup.KeyExprs follow Params. Binding the same placeholder again
// replaces the previous table.
func (ctx *Context) Bind(placeholder, t *storage.Table) {
	if ctx.bound == nil {
		ctx.bound = map[*storage.Table]*storage.Table{}
	}
	ctx.bound[placeholder] = t
}

// resolve returns the table bound to t, or t itself when none is.
func (ctx *Context) resolve(t *storage.Table) *storage.Table {
	if b, ok := ctx.bound[t]; ok {
		return b
	}
	return t
}

// Err reports why execution should stop: the caller context's
// cancellation or deadline error, or nil when no caller context is
// attached or it is still live.
func (ctx *Context) Err() error {
	if ctx.Caller == nil {
		return nil
	}
	return ctx.Caller.Err()
}

// OperatorStats returns the per-operator runtime statistics collected
// so far, in first-Open order. The slice is live: entries keep
// accumulating if execution continues.
func (ctx *Context) OperatorStats() []*OpStats { return ctx.ops }

// Operator is a restartable iterator over morsels of rows.
type Operator interface {
	// Schema describes the rows the operator produces.
	Schema() *schema.Schema
	// Open (re)initializes the operator. It must be callable repeatedly.
	Open(ctx *Context) error
	// NextBatch appends up to max rows to dst, which the caller has
	// Reset. dst left empty signals end of stream (see Batch).
	NextBatch(ctx *Context, dst *Batch, max int) error
	// Close releases resources; it cannot fail. Close after Close is a
	// no-op.
	Close(ctx *Context)
}

// Drain opens op, pulls every row, closes it, and returns the rows.
func Drain(ctx *Context, op Operator) ([]value.Row, error) {
	return drainSized(ctx, op, 0, nil)
}

// drainSized is Drain for a materialization point whose plan carries
// op's cardinality (forEachBatch's expect), appending the rows to rows.
func drainSized(ctx *Context, op Operator, expect int, rows []value.Row) ([]value.Row, error) {
	err := drainInto(ctx, op, expect, func(b []value.Row) error {
		rows = append(rows, b...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Count drains op and returns only the row count.
func Count(ctx *Context, op Operator) (int, error) {
	n := 0
	err := drainInto(ctx, op, 0, func(b []value.Row) error {
		n += len(b)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// drainInto opens op, hands every morsel to sink, and closes op.
func drainInto(ctx *Context, op Operator, expect int, sink func([]value.Row) error) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	err := forEachBatch(ctx, op, expect, false, sink)
	op.Close(ctx)
	return err
}

// MaterializeToTable drains op into a fresh storage table named name,
// charging one page write per page produced.
func MaterializeToTable(ctx *Context, op Operator, name string) (*storage.Table, error) {
	rows, err := Drain(ctx, op)
	if err != nil {
		return nil, err
	}
	t := storage.FromRows(name, op.Schema(), rows)
	ctx.Counter.PageWrites += int64(t.NumPages())
	return t, nil
}

// errOp wraps a construction-time error so that builders can defer error
// reporting to Open.
type errOp struct {
	s   *schema.Schema
	err error
}

// Error returns an operator that fails at Open with err.
func Error(s *schema.Schema, err error) Operator { return &errOp{s: s, err: err} }

func (e *errOp) Schema() *schema.Schema { return e.s }
func (e *errOp) Open(*Context) error    { return e.err }
func (e *errOp) NextBatch(*Context, *Batch, int) error {
	return fmt.Errorf("exec: NextBatch on failed operator: %w", e.err)
}
func (e *errOp) Close(*Context) {}

// Values is a leaf operator over in-memory rows that charges CPU only
// (used for pipelined intermediate results and tests).
type Values struct {
	Sch  *schema.Schema
	Rows []value.Row
	pos  int
}

// NewValues builds a Values operator.
func NewValues(s *schema.Schema, rows []value.Row) *Values {
	return &Values{Sch: s, Rows: rows}
}

// Schema implements Operator.
func (v *Values) Schema() *schema.Schema { return v.Sch }

// Open implements Operator.
func (v *Values) Open(*Context) error {
	v.pos = 0
	return nil
}

// NextBatch implements Operator: emit the buffered rows a morsel at a
// time, charging one CPU operation per row.
func (v *Values) NextBatch(ctx *Context, dst *Batch, max int) error {
	ctx.Counter.CPUTuples += int64(dst.AppendFrom(v.Rows, &v.pos, max))
	return nil
}

// Close implements Operator.
func (v *Values) Close(*Context) {}
