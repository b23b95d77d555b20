package opt

import (
	"strings"

	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
)

// JoinStep is what the DP knows about extending one outer plan with one
// inner relation, derived once per extension and handed to every join
// method — built in or registered — so all of them cost the same step
// from the same numbers. It is the optimizer/method contract: a method
// prices each of its candidates (estimate and delivered ordering),
// offers the price to Admit, and builds only an admitted candidate,
// handing it to Keep — which adds what every candidate shares. Methods
// must treat the step as read-only; its slices are shared by every
// candidate of the step, and those of the (outer subset, inner) pair
// (Preds, the key columns, Residual) by every outer plan of the subset.
// The DP reuses one step, and the storage of the orderings priced
// before admission, for every extension: a method may not keep the step,
// or an ordering it passed to Admit, after Offer returns — Keep copies
// the ordering of a candidate it keeps.
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

	tbl    propTable     // the extended subset's live memo table
	pair   *pairFacts    // what the step shares with its pair's other steps
	method int           // the registered method being offered (PairSlot)
	est    cost.Estimate // the offer Admit last accepted
	ord    plan.Ordering

	// Derived on first use, so a step whose every candidate is pruned
	// never computes them: the shape of a built candidate, the memo
	// property of Ordering, and the kept copy of the last scratch
	// ordering a kept candidate delivered.
	stats      *stats.RelStats
	colMap     []int
	outSchema  *schema.Schema
	streamProp plan.Ordering
	propDone   bool
	ownedFrom  plan.Ordering
	owned      plan.Ordering
}

// pairFacts are what an extension knows from its (outer subset, inner
// relation) pair alone, not from the outer plan: derived on the pair's
// first step and shared, read-only, by the steps of the subset's other
// kept outer plans and by the candidates they keep.
type pairFacts struct {
	ready                bool
	preds, residual      []*PredInfo
	outerCols, innerCols []int
	keyText              string // rendered on first use

	// The inner's index covering the most equi columns and its probe
	// estimate (indexProbe), derived on first use.
	probeDone     bool
	ix            *storage.HashIndex
	k, matchPages float64

	slots []any // one per registered method (PairSlot)
}

// resetPairs starts a subset: no pair of it has facts yet. The slot
// storage is kept for the next subset's pairs.
func (c *Ctx) resetPairs() {
	if c.pairs == nil {
		c.pairs = make([]pairFacts, len(c.Rels))
	}
	for i := range c.pairs {
		slots := c.pairs[i].slots
		clear(slots)
		c.pairs[i] = pairFacts{slots: slots}
	}
}

// resetStep readies the Ctx's one JoinStep for extending outer with the
// inner relation: the pair's facts (derived here on its first step), the
// step's rows and streaming ordering, and empty ordering scratch.
func (c *Ctx) resetStep(outer *plan.Node, inner int, tbl propTable) *JoinStep {
	ri, p := c.Rels[inner], &c.pairs[inner]
	if !p.ready {
		p.preds = c.ApplicablePreds(outer.Rels, inner)
		p.outerCols, p.innerCols, p.residual = c.equiSplit(p.preds, outer.Rels, inner)
		p.ready = true
	}
	c.ordKeys, c.ordCols = c.ordKeys[:0], c.ordCols[:0]
	s := &c.step
	*s = JoinStep{Ctx: c, Outer: outer, Inner: ri, Rels: outer.Rels.With(inner), tbl: tbl, pair: p,
		Preds: p.preds, OuterCols: p.outerCols, InnerCols: p.innerCols, Residual: p.residual}
	s.Rows = c.joinRows(outer, ri, s.Preds)
	s.Ordering = c.extendOrdering(outer.Ordering, s.OuterCols, s.InnerCols)
	return s
}

// ExtendOrdering is the outer's ordering widened across the given equi
// pairs (plan.Ordering.AppendExtendEquiv): what a method that streams
// its outer delivers when it equates only those pairs. It is built in
// scratch the DP reuses, valid until Offer returns: pass it to Admit,
// and Keep copies it if the candidate is kept.
func (s *JoinStep) ExtendOrdering(outerCols, innerCols []int) plan.Ordering {
	return s.Ctx.extendOrdering(s.Outer.Ordering, outerCols, innerCols)
}

// PairSlot is a slot of the calling registered method's own for the
// step's (outer subset, inner relation) pair. It is empty on the pair's
// first step and keeps what the method stores for the pair's later
// steps, those of the subset's other kept outer plans: a fact that
// depends on the pair alone (never on Outer) is derived there once. What
// it holds is shared by every candidate built from it, so must not be
// modified once stored.
func (s *JoinStep) PairSlot() *any {
	p := s.pair
	if p.slots == nil {
		p.slots = make([]any, len(s.Ctx.O.extra))
	}
	return &p.slots[s.method]
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
// ordering and the output shape every candidate shares. A kept
// candidate gets its own copy of an ordering built in scratch.
func (s *JoinStep) Keep(n *plan.Node) {
	n.Est, n.Rows, n.Stats = s.est, s.Rows, s.shape()
	n.OutSchema, n.ColMap, n.Rels = s.outSchema, s.colMap, s.Rels
	cand := plan.NewNode(s.ord, n)
	if s.Ctx.O.keepCandidate(s.Ctx, s.tbl, s.Rels, cand, s.prop(s.ord)) {
		cand.Ordering = s.own(s.ord)
	}
}

// prop is ord's memo property (interestingPrefix). The streaming
// Ordering every outer-streaming candidate delivers — recognized by
// identity, as methods pass s.Ordering itself — is projected once.
func (s *JoinStep) prop(ord plan.Ordering) plan.Ordering {
	if !sameOrdering(ord, s.Ordering) {
		return s.Ctx.interestingPrefix(ord)
	}
	if !s.propDone {
		s.streamProp, s.propDone = s.Ctx.interestingPrefix(ord), true
	}
	return s.streamProp
}

// own returns ord in storage a kept node may hold: ord itself when it
// is empty or the outer's own ordering (which a kept plan holds
// already), else a copy — one per step for an ordering kept more than
// once, like the streaming one every outer-streaming method passes.
func (s *JoinStep) own(ord plan.Ordering) plan.Ordering {
	switch {
	case len(ord) == 0 || sameOrdering(ord, s.Outer.Ordering):
		return ord
	case !sameOrdering(ord, s.ownedFrom):
		s.ownedFrom, s.owned = ord, ord.Clone()
	}
	return s.owned
}

// sameOrdering reports whether a and b are one ordering: the same
// non-empty stretch of one array of keys.
func sameOrdering(a, b plan.Ordering) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
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

// keys renders the pair's equi-join key list ("E.did=D.did, ...") once
// for every method and outer plan that shows it.
func (s *JoinStep) keys() string {
	if s.pair.keyText == "" {
		s.pair.keyText = s.Ctx.keyDetail(s.OuterCols, s.InnerCols)
	}
	return s.pair.keyText
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
