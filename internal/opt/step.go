package opt

import (
	"strings"

	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
)

// JoinStep is what the DP knows about extending one outer plan with one
// inner relation, derived once per extension and handed to every join
// method — built in or registered — so all of them cost the same step
// from the same numbers. It is the optimizer/method contract: a method
// prices each of its candidates (estimate and delivered ordering),
// offers the price to Admit, and builds only an admitted candidate,
// handing it to Keep — which adds what every candidate shares. Methods
// must treat the step as read-only; its slices are shared by every
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

	// Every candidate of the step produces Rows rows over Rels: the
	// outer's columns followed by the inner relation's.
	Rows float64
	Rels query.RelSet

	// Ordering is the outer's retained ordering widened by the columns
	// the step's keys equate to it: what a method that streams its outer
	// input (every one but the merge join) delivers.
	Ordering plan.Ordering

	tbl propTable     // the extended subset's live memo table
	est cost.Estimate // the offer Admit last accepted
	ord plan.Ordering

	// Derived on first use, so a step whose every candidate is pruned
	// never computes them: the shape of a built candidate, the memo
	// property of Ordering, and the rendered key list.
	stats      *stats.RelStats
	colMap     []int
	outSchema  *schema.Schema
	streamProp plan.Ordering
	propDone   bool
	keyText    string
}

func (c *Ctx) newJoinStep(outer *plan.Node, inner int, tbl propTable) *JoinStep {
	ri := c.Rels[inner]
	s := &JoinStep{Ctx: c, Outer: outer, Inner: ri, Rels: outer.Rels.With(inner), tbl: tbl}
	s.Preds = c.ApplicablePreds(outer.Rels, inner)
	s.OuterCols, s.InnerCols, s.Residual = c.equiSplit(s.Preds, outer.Rels, inner)
	s.Rows = c.joinRows(outer, ri, s.Preds)
	s.Ordering = outer.Ordering.ExtendEquiv(s.OuterCols, s.InnerCols)
	return s
}

// Admit offers one priced candidate — its estimate and the ordering it
// delivers — to the extended subset's memo table as it stands, and
// reports whether the method should build it. A candidate some kept
// plan dominates (keepCandidate's rule) is counted as considered and
// never built. With a tracer installed Admit admits everything, so every
// candidate is built and keepCandidate decides and traces each one.
func (s *JoinStep) Admit(est cost.Estimate, ord plan.Ordering) bool {
	o := s.Ctx.O
	if !o.Traces() && s.Ctx.dominated(s.tbl, o.Model.TotalEstimate(est), ord) {
		o.Metrics.PlansConsidered++
		return false
	}
	s.est, s.ord = est, ord
	return true
}

// Keep finishes the candidate Admit last accepted and offers it to the
// memo: n carries what is the method's own — Kind, Detail, Children,
// Make (and Extra) — and the step fills in the admitted estimate and
// ordering and the output shape every candidate shares.
func (s *JoinStep) Keep(n *plan.Node) {
	n.Est, n.Rows, n.Stats = s.est, s.Rows, s.shape()
	n.OutSchema, n.ColMap, n.Rels = s.outSchema, s.colMap, s.Rels
	s.Ctx.O.keepCandidate(s.Ctx, s.tbl, s.Rels, plan.NewNode(s.ord, n), s.prop(s.ord))
}

// prop is ord's memo property (interestingPrefix). The streaming
// Ordering every outer-streaming candidate delivers — recognized by
// identity, as methods pass s.Ordering itself — is projected once.
func (s *JoinStep) prop(ord plan.Ordering) plan.Ordering {
	if len(ord) == 0 || len(ord) != len(s.Ordering) || &ord[0] != &s.Ordering[0] {
		return s.Ctx.interestingPrefix(ord)
	}
	if !s.propDone {
		s.streamProp, s.propDone = s.Ctx.interestingPrefix(ord), true
	}
	return s.streamProp
}

// shape derives, once per step, the output statistics, column map and
// schema of a built candidate, and returns the statistics.
func (s *JoinStep) shape() *stats.RelStats {
	if s.stats == nil {
		s.stats = s.Ctx.joinStats(s.Outer, s.Inner, s.Preds, s.Rows)
		s.colMap = plan.MergeColMaps(s.Outer.ColMap, s.Inner.ColMap, s.Outer.OutSchema.Len())
		s.outSchema = s.Outer.OutSchema.Concat(s.Inner.Schema)
	}
	return s.stats
}

// ColMap maps block layout columns to a candidate's output positions.
func (s *JoinStep) ColMap() []int { s.shape(); return s.colMap }

// OutSchema is a candidate's output schema: outer‖inner.
func (s *JoinStep) OutSchema() *schema.Schema { s.shape(); return s.outSchema }

// keys renders the step's equi-join key list ("E.did=D.did, ...") once
// for every method that shows it.
func (s *JoinStep) keys() string {
	if s.keyText == "" {
		s.keyText = s.Ctx.keyDetail(s.OuterCols, s.InnerCols)
	}
	return s.keyText
}

func (c *Ctx) keyDetail(outerCols, innerCols []int) string {
	var b strings.Builder
	for i := range outerCols {
		if i > 0 {
			b.WriteString(", ")
		}
		writeQualified(&b, c.Layout.Schema.Col(outerCols[i]))
		b.WriteByte('=')
		writeQualified(&b, c.Layout.Schema.Col(innerCols[i]))
	}
	return b.String()
}

// writeQualified writes col.QualifiedName() without building it.
func writeQualified(b *strings.Builder, col schema.Column) {
	if col.Table != "" {
		b.WriteString(col.Table)
		b.WriteByte('.')
	}
	b.WriteString(col.Name)
}

// residualWithLocal is the residual of a method that reaches the inner
// relation around its leaf (index fetch, function probe): the step's
// predicates in rest plus the relation's local predicate, which the
// bypassed leaf would have applied.
func (s *JoinStep) residualWithLocal(rest []*PredInfo) expr.Expr {
	residual := ResidualExpr(rest, s.ColMap())
	if s.Inner.LocalPred == nil {
		return residual
	}
	lp := expr.Remap(s.Inner.LocalPred, s.ColMap())
	if residual == nil {
		return lp
	}
	return expr.NewAnd(residual, lp)
}
