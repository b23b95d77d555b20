// Package parambind exercises the parambind analyzer: operators that
// capture expressions must rebind them via expr.Bind* in a method
// reachable from Open, and type switches that classify expr.Lit must
// also classify expr.Param — a bound parameter is a constant too.
package parambind

import (
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
)

// staleFilter captures a predicate at plan time and never rebinds it:
// a cached plan would evaluate the planning-time parameter values.
type staleFilter struct {
	child exec.Operator
	pred  expr.Expr // want "operator staleFilter captures expression field pred but no Open-reachable method rebinds it via expr.BindParams"
}

func (s *staleFilter) Schema() *schema.Schema { return s.child.Schema() }

func (s *staleFilter) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

func (s *staleFilter) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return s.child.NextBatch(ctx, dst, max)
}

func (s *staleFilter) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// boundFilter rebinds at Open: compliant.
type boundFilter struct {
	child exec.Operator
	pred  expr.Expr
}

func (b *boundFilter) Schema() *schema.Schema { return b.child.Schema() }

func (b *boundFilter) Open(ctx *exec.Context) error {
	b.pred = expr.BindParams(b.pred, ctx.Params)
	return b.child.Open(ctx)
}

func (b *boundFilter) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return b.child.NextBatch(ctx, dst, max)
}

func (b *boundFilter) Close(ctx *exec.Context) error { return b.child.Close(ctx) }

// staleKeys captures expression slices; both go unbound.
type staleKeys struct {
	child exec.Operator
	keys  []expr.Expr    // want "operator staleKeys captures expression field keys but no Open-reachable method rebinds it via expr.BindParamsList"
	aggs  []expr.AggSpec // want "operator staleKeys captures expression field aggs but no Open-reachable method rebinds it via expr.BindAggs"
}

func (s *staleKeys) Schema() *schema.Schema { return s.child.Schema() }

func (s *staleKeys) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

func (s *staleKeys) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return s.child.NextBatch(ctx, dst, max)
}

func (s *staleKeys) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// helperBound rebinds through a helper Open calls: reachability, not
// syntax, decides compliance.
type helperBound struct {
	child exec.Operator
	keys  []expr.Expr
	aggs  []expr.AggSpec
}

func (h *helperBound) Schema() *schema.Schema { return h.child.Schema() }

func (h *helperBound) Open(ctx *exec.Context) error {
	h.rebind(ctx)
	return h.child.Open(ctx)
}

func (h *helperBound) rebind(ctx *exec.Context) {
	h.keys = expr.BindParamsList(h.keys, ctx.Params)
	h.aggs = expr.BindAggs(h.aggs, ctx.Params)
}

func (h *helperBound) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return h.child.NextBatch(ctx, dst, max)
}

func (h *helperBound) Close(ctx *exec.Context) error { return h.child.Close(ctx) }

// staleKernel compiles its residual once and never rebinds it: every
// execution of a cached plan would test the planning-time parameters.
type staleKernel struct {
	child    exec.Operator
	residual *expr.Pred // want "operator staleKernel holds compiled predicate residual but no Open-reachable method calls its Bind"
}

func (s *staleKernel) Schema() *schema.Schema { return s.child.Schema() }

func (s *staleKernel) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

func (s *staleKernel) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return s.child.NextBatch(ctx, dst, max)
}

func (s *staleKernel) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// boundKernel binds the compiled residual at Open: compliant.
type boundKernel struct {
	child    exec.Operator
	residual *expr.Pred
}

func (b *boundKernel) Schema() *schema.Schema { return b.child.Schema() }

func (b *boundKernel) Open(ctx *exec.Context) error {
	b.residual.Bind(ctx.Params)
	return b.child.Open(ctx)
}

func (b *boundKernel) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return b.child.NextBatch(ctx, dst, max)
}

func (b *boundKernel) Close(ctx *exec.Context) error { return b.child.Close(ctx) }

// classify forgets that a bound Param is a constant: flagged.
func classify(e expr.Expr) string {
	switch e.(type) { // want "type switch over expr.Expr handles expr.Lit but not expr.Param"
	case expr.Lit:
		return "const"
	default:
		return "other"
	}
}

// classifyFull covers Param alongside Lit: compliant.
func classifyFull(e expr.Expr) string {
	switch e.(type) {
	case expr.Lit:
		return "const"
	case expr.Param:
		return "param"
	default:
		return "other"
	}
}

// printKind renders for debugging only; params displaying as opaque is
// acceptable and documented.
func printKind(e expr.Expr) string {
	//lint:ignore parambind fixture: display-only path, params render as literals
	switch e.(type) {
	case expr.Lit:
		return "lit"
	default:
		return "expr"
	}
}
