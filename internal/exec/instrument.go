package exec

import (
	"fmt"
	"time"

	"filterjoin/internal/cost"
	"filterjoin/internal/schema"
)

// OpStats is the runtime profile of one instrumented operator instance:
// Volcano call counts, rows produced, wall time, and the delta of every
// cost.Counter component charged while the operator (and its subtree)
// was running. Counters and times are *inclusive* — they cover the
// operator's children too; Self/SelfWall subtract the children's share,
// so that summing Self over all operators of one execution reproduces
// the execution's root counter exactly (no double-charging, no lost
// charges).
//
// Stats accumulate across re-Opens: an inner re-opened by a
// nested-loops join keeps one OpStats whose Opens counts the restarts
// and whose Rows counts the total rows produced over all of them.
type OpStats struct {
	Label string // display label, normally the plan node kind
	Tag   any    // opaque owner handle, normally the *plan.Node

	Opens  int64
	Nexts  int64
	Closes int64
	Rows   int64 // rows produced across all Opens

	Wall      time.Duration // wall time inside this operator's calls (inclusive)
	Inclusive cost.Counter  // counter delta inside this operator's calls (inclusive)

	childWall time.Duration
	childIncl cost.Counter
}

// Self returns the counter delta charged by this operator alone,
// excluding instrumented descendants.
func (s *OpStats) Self() cost.Counter { return s.Inclusive.Diff(s.childIncl) }

// SelfWall returns the wall time spent in this operator alone,
// excluding instrumented descendants.
func (s *OpStats) SelfWall() time.Duration { return s.Wall - s.childWall }

// Merge accumulates o into s (used when one plan node was instantiated
// more than once in a single execution, e.g. a production set that is
// recomputed for the final join).
func (s *OpStats) Merge(o *OpStats) {
	s.Opens += o.Opens
	s.Nexts += o.Nexts
	s.Closes += o.Closes
	s.Rows += o.Rows
	s.Wall += o.Wall
	s.Inclusive.Add(o.Inclusive)
	s.childWall += o.childWall
	s.childIncl.Add(o.childIncl)
}

// String renders a compact one-line profile.
func (s *OpStats) String() string {
	return fmt.Sprintf("%s opens=%d rows=%d self=%s incl=%s wall=%s",
		s.Label, s.Opens, s.Rows, s.Self().String(), s.Inclusive.String(), s.Wall)
}

// Instrumented wraps an Operator with runtime accounting. Every call is
// timed, counted, and bracketed with cost.Counter snapshots; the shim
// registers itself with the execution Context on first Open, so callers
// can collect the full per-operator profile from Context.OperatorStats
// after a run. Attribution nests through the Context's shim stack:
// whatever a wrapped operator charges while running inside another
// wrapped operator's call is credited to the inner one's Inclusive and
// subtracted from the outer one's Self.
type Instrumented struct {
	Op         Operator
	stats      OpStats
	registered bool
}

// NewInstrumented wraps op. label and tag identify the operator in the
// collected profile (the planner passes the plan node kind and the node
// itself).
func NewInstrumented(op Operator, label string, tag any) *Instrumented {
	return &Instrumented{Op: op, stats: OpStats{Label: label, Tag: tag}}
}

// Stats exposes the shim's accumulated statistics.
func (in *Instrumented) Stats() *OpStats { return &in.stats }

// Unwrap returns the underlying operator.
func (in *Instrumented) Unwrap() Operator { return in.Op }

// Schema implements Operator.
func (in *Instrumented) Schema() *schema.Schema { return in.Op.Schema() }

// enter begins an instrumented call: snapshot the counter and the
// clock, and push the shim on the context's attribution stack.
func (in *Instrumented) enter(ctx *Context) (cost.Counter, time.Time) {
	if !in.registered {
		in.registered = true
		ctx.ops = append(ctx.ops, &in.stats)
	}
	ctx.stack = append(ctx.stack, in)
	return *ctx.Counter, time.Now()
}

// exit ends an instrumented call: pop the stack, accumulate the call's
// inclusive delta, and credit it to the parent shim's children share.
func (in *Instrumented) exit(ctx *Context, before cost.Counter, start time.Time) {
	d := ctx.Counter.Diff(before)
	el := time.Since(start)
	ctx.stack = ctx.stack[:len(ctx.stack)-1]
	in.stats.Inclusive.Add(d)
	in.stats.Wall += el
	if n := len(ctx.stack); n > 0 {
		p := &ctx.stack[n-1].stats
		p.childIncl.Add(d)
		p.childWall += el
	}
}

// Open implements Operator. Only a successful Open counts: callers never
// Close an operator whose Open failed, so Opens == Closes holds for a
// correct error path as well as a clean run.
func (in *Instrumented) Open(ctx *Context) error {
	before, start := in.enter(ctx)
	err := in.Op.Open(ctx)
	if err == nil {
		in.stats.Opens++
	}
	in.exit(ctx, before, start)
	return err
}

// NextBatch implements Operator: one instrumentation bracket per batch
// instead of per row — the dominant saving batch execution buys. Nexts
// counts batch pulls, Rows counts rows, and deltas accumulate exactly
// once per call regardless of morsel size or re-opens.
func (in *Instrumented) NextBatch(ctx *Context, dst *Batch, max int) error {
	before, start := in.enter(ctx)
	err := in.Op.NextBatch(ctx, dst, max)
	in.stats.Nexts++
	in.stats.Rows += int64(len(dst.Rows))
	in.exit(ctx, before, start)
	return err
}

// Close implements Operator.
func (in *Instrumented) Close(ctx *Context) {
	before, start := in.enter(ctx)
	in.Op.Close(ctx)
	in.stats.Closes++
	in.exit(ctx, before, start)
}
