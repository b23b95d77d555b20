package opt

import (
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
)

// JoinStep is what the DP knows about extending one outer plan with one
// inner relation, derived once in candidatesFor and handed to every join
// method — built in or registered — so all of them cost the same step
// from the same numbers. It is the optimizer/method contract: a method
// adds only what is its own (kind, cost, operator factory) through Node.
// Methods must treat it as read-only; its slices are shared by every
// candidate of the step.
type JoinStep struct {
	Ctx   *Ctx
	Outer *plan.Node
	Inner *RelInfo

	// Preds are the predicates that become evaluable at this step;
	// OuterCols[i] = InnerCols[i] are its equi-join key pairs (block
	// layout columns) and Residual the rest.
	Preds                []*PredInfo
	OuterCols, InnerCols []int
	Residual             []*PredInfo

	// Every candidate of the step produces this: the outer's columns
	// followed by the inner relation's.
	Rows      float64
	Stats     *stats.RelStats
	ColMap    []int
	OutSchema *schema.Schema
	Rels      query.RelSet

	// Ordering is the outer's retained ordering widened by the columns
	// the step's keys equate to it: what a method that streams its outer
	// input (every one but the merge join) delivers.
	Ordering plan.Ordering
}

func (c *Ctx) newJoinStep(outer *plan.Node, inner int) *JoinStep {
	ri := c.Rels[inner]
	s := &JoinStep{Ctx: c, Outer: outer, Inner: ri, Rels: outer.Rels.With(inner)}
	s.Preds = c.ApplicablePreds(outer.Rels, inner)
	s.OuterCols, s.InnerCols, s.Residual = c.equiSplit(s.Preds, outer.Rels, inner)
	s.Rows, s.Stats = c.joinResult(outer, ri, s.Preds)
	s.ColMap = plan.MergeColMaps(outer.ColMap, ri.ColMap, outer.OutSchema.Len())
	s.OutSchema = outer.OutSchema.Concat(ri.Schema)
	s.Ordering = outer.Ordering.ExtendEquiv(s.OuterCols, s.InnerCols)
	return s
}

// Node finishes one candidate of the step: n carries what is the
// method's own — Kind, Detail, Children, Est, Make (and Extra) — and the
// step fills in what every candidate shares. ord is the order the
// method delivers, s.Ordering for one that streams its outer.
func (s *JoinStep) Node(ord plan.Ordering, n *plan.Node) *plan.Node {
	n.Rows, n.Stats = s.Rows, s.Stats
	n.OutSchema, n.ColMap, n.Rels = s.OutSchema, s.ColMap, s.Rels
	return plan.NewNode(ord, n)
}

// residualWithLocal is the residual of a method that reaches the inner
// relation around its leaf (index fetch, function probe): the step's
// predicates in rest plus the relation's local predicate, which the
// bypassed leaf would have applied.
func (s *JoinStep) residualWithLocal(rest []*PredInfo) expr.Expr {
	residual := ResidualExpr(rest, s.ColMap)
	if s.Inner.LocalPred == nil {
		return residual
	}
	lp := expr.Remap(s.Inner.LocalPred, s.ColMap)
	if residual == nil {
		return lp
	}
	return expr.NewAnd(residual, lp)
}
