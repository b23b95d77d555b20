package exec

import (
	"fmt"

	"filterjoin/internal/schema"
)

// ReplanError aborts an execution whose cardinality estimates turned out
// wrong enough to gamble on a better plan: a CardGuard at a
// materialization point observed Rows input rows against an estimate of
// Est. The serving layer catches it, charges one Replans unit, and
// re-optimizes the remainder of the query with the observed cardinality
// (DESIGN.md §15); every other caller sees an ordinary execution error.
type ReplanError struct {
	Where string  // materialization point, e.g. "HashJoin build"
	Est   float64 // planned input cardinality
	Rows  int64   // rows observed when the guard fired
	Tag   any     // the guarded input's *plan.Node, when known
}

// Error implements error.
func (e *ReplanError) Error() string {
	return fmt.Sprintf("exec: %s input exceeded estimate %.0f by the replan ratio (%d rows seen)",
		e.Where, e.Est, e.Rows)
}

// CardGuard wraps the input of a materialization point (hash-join build,
// hash aggregation, sort, key-set build) and counts the rows flowing
// into it. When the execution context arms replanning (ReplanRatio > 0)
// and the count exceeds the planned estimate by that ratio, the guard
// aborts the pull with a *ReplanError instead of letting the
// materialization absorb an input the optimizer never costed. The guard
// itself does no row work and charges nothing: with replanning disarmed
// it is an invisible pass-through, so rows, order, and counter totals
// are bit-identical to an unguarded plan.
type CardGuard struct {
	Child Operator
	Est   float64 // planned input cardinality (clamped to >= 1 when checking)
	Where string  // materialization point label for the ReplanError
	Tag   any     // the guarded input's plan node, threaded into the error

	n int64 // rows seen since Open
}

// NewCardGuard wraps child with a cardinality guard.
func NewCardGuard(child Operator, est float64, where string, tag any) *CardGuard {
	return &CardGuard{Child: child, Est: est, Where: where, Tag: tag}
}

// Schema implements Operator.
func (g *CardGuard) Schema() *schema.Schema { return g.Child.Schema() }

// Open implements Operator.
func (g *CardGuard) Open(ctx *Context) error {
	g.n = 0
	return g.Child.Open(ctx)
}

// NextBatch implements Operator: the guard counts the morsel and checks
// once per call, so it pays one comparison per morsel rather than per
// row. The trip point is therefore a function of the morsel size: the
// guard fires at the end of the first pull that carries the count to the
// threshold, so ReplanError.Rows is exactly the threshold at morsel size
// 1 and up to one morsel past it otherwise (guard_test.go pins both).
func (g *CardGuard) NextBatch(ctx *Context, b *Batch, max int) error {
	before := b.Len()
	if err := g.Child.NextBatch(ctx, b, max); err != nil {
		return err
	}
	g.n += int64(b.Len() - before)
	return g.check(ctx)
}

// Close implements Operator.
func (g *CardGuard) Close(ctx *Context) error { return g.Child.Close(ctx) }

// check applies the misestimate rule shared with EXPLAIN ANALYZE's flag:
// both sides clamped to >= 1, fire when the observed count exceeds the
// estimate by the context's replan ratio.
func (g *CardGuard) check(ctx *Context) error {
	if ctx.ReplanRatio <= 0 {
		return nil
	}
	est := g.Est
	if est < 1 {
		est = 1
	}
	if float64(g.n) >= est*ctx.ReplanRatio {
		return &ReplanError{Where: g.Where, Est: g.Est, Rows: g.n, Tag: g.Tag}
	}
	return nil
}
