// Adaptive re-optimization (DESIGN.md §12): the serving layer's
// statistics-feedback loop over measured cardinalities.
//
// With Config.AdaptiveFeedback on, after every served SELECT and EXPLAIN
// ANALYZE, leaf-scan actuals that miss the planner's estimate by the
// feedback ratio are folded back into the scanned relation's statistics
// — an observed selectivity for the exact predicate, plus a histogram
// refinement when the predicate is a single column-vs-constant
// comparison — and the catalog epoch is bumped so every cached plan
// built from the stale statistics re-optimizes.
package filterjoin

import (
	"filterjoin/internal/catalog"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/stats"
	"filterjoin/internal/value"
)

// feedbackRatio is the est-vs-actual factor beyond which a measured
// cardinality is fed back into statistics.
const feedbackRatio = 2

// feedbackObs is one candidate statistics correction: a measured
// selectivity for a predicate over a named base relation.
type feedbackObs struct {
	rel  string
	pred expr.Expr // the leaf's local predicate under the execution's binding
	act  float64   // measured output rows (complete: one Open, no truncation)
	raw  float64   // unfiltered relation cardinality the plan was built from
}

// absorbFeedback is the slow feedback loop. It must be called outside
// any span: candidates are extracted lock-free from the finished result,
// a read span checks each against the catalog's current estimate, and
// only if one misestimates does it enter a write span, check again and
// record the misestimated ones. The check runs under the execution's
// binding, not the planned one: a cached plan serves every binding of
// its selectivity class, and its leaves' estimates are for the binding
// it was planned with. Checking again inside the write span matters
// because another session may have applied a correction in between:
// comparing against ent.Stats() keeps one misestimate from being
// observed twice. The span's epoch bump is unconditional: plans cached
// under it were planned from statistics just shown to misestimate, and
// a rare spurious bump (every check failing inside the span) only costs
// one re-optimization.
func (e *Engine) absorbFeedback(res *Result, args []value.Value) {
	if !e.adaptFeedback || res == nil || res.Plan == nil {
		return
	}
	cands := collectObservations(res, args)
	if len(cands) == 0 {
		return
	}
	need := false
	e.span.Read(func(uint64) {
		for _, c := range cands {
			if _, ok := e.correction(c); ok {
				need = true
				return
			}
		}
	})
	if !need {
		return
	}
	e.span.Write(func() {
		for _, c := range cands {
			if ent, ok := e.correction(c); ok {
				o := stats.PredObservation{
					Key: stats.PredKey(c.pred),
					Sel: c.act / c.raw,
					Col: -1,
				}
				if col, op, x, ok := refinableCmp(c.pred); ok {
					o.Col, o.Op, o.X = col, op, x
				}
				ent.ObserveFeedback(o)
			}
		}
	})
}

// correction returns c's catalog entry and whether the entry's current
// statistics misestimate c by the feedback ratio. It runs inside a span.
func (e *Engine) correction(c feedbackObs) (*catalog.Entry, bool) {
	ent, err := e.cat.Get(c.rel)
	if err != nil {
		return nil, false
	}
	st := ent.Stats()
	if st == nil {
		return nil, false
	}
	_, off := plan.Misestimate(stats.Selectivity(c.pred, st)*c.raw, c.act, feedbackRatio)
	return ent, off
}

// collectObservations extracts complete leaf-scan measurements from a
// finished result, without touching the catalog (lock-free), binding
// each leaf's predicate with the execution's arguments. A measurement is
// complete only when the node was opened exactly once — multi-open
// leaves are probe-parameterized access paths (index nested-loop
// inners, recomputed production sets) whose per-open counts do not
// reflect the static predicate alone — and when no ancestor truncates
// its input (TopN/Limit), which would undercount every leaf below it.
func collectObservations(res *Result, args []value.Value) []feedbackObs {
	truncated := false
	res.Plan.Walk(func(n *plan.Node) {
		switch n.Kind {
		case "TopN", "Limit":
			truncated = true
		}
	})
	if truncated {
		return nil
	}
	byNode, _, _ := plan.StatsByNode(res.Plan, res.Stats())
	var out []feedbackObs
	for n, st := range byNode {
		if n.Source == "" || n.SourcePred == nil || n.SourceRows < 1 || st.Opens != 1 {
			continue
		}
		out = append(out, feedbackObs{
			rel:  n.Source,
			pred: expr.BindParams(n.SourcePred, args),
			act:  float64(st.Rows),
			raw:  n.SourceRows,
		})
	}
	return out
}

// refinableCmp recognizes the predicate shape the histogram refinement
// path can use: a single comparison between a column and a numeric
// constant (literal or bound parameter), in either order.
func refinableCmp(pred expr.Expr) (col int, op expr.CmpOp, x float64, ok bool) {
	c, isCmp := pred.(expr.Cmp)
	if !isCmp {
		return 0, 0, 0, false
	}
	cc, op, k, ok := expr.ColConst(c)
	if !ok {
		return 0, 0, 0, false
	}
	v, _ := k.Eval(nil) // a literal or bound parameter: cannot fail
	x, ok = v.AsFloat()
	return cc.Idx, op, x, ok
}
