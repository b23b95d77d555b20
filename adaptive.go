// Adaptive re-optimization (DESIGN.md §15): the serving layer's
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
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/stats"
)

// feedbackObs is one candidate statistics correction: a measured
// selectivity for a predicate over a named base relation.
type feedbackObs struct {
	rel  string
	pred expr.Expr // the leaf's local predicate (provenance)
	est  float64   // the executed plan's estimated output rows
	act  float64   // measured output rows (complete: one Open, no truncation)
	raw  float64   // unfiltered relation cardinality the plan was built from
}

// absorbFeedback is the slow feedback loop. It must be called outside
// any span: candidates are extracted lock-free from the finished result,
// and only if any exist does it enter a write span, verify each against
// the catalog's current estimate, and record the misestimated ones.
// Verification inside the span matters because the executed plan's
// estimates may predate a correction another session has already
// applied: comparing against ent.Stats() keeps one misestimate from
// being observed twice. The span's epoch bump is unconditional: plans
// cached under it were planned from statistics just shown to
// misestimate, and a rare spurious bump (every per-relation check
// failing inside the span) only costs one re-optimization.
func (e *Engine) absorbFeedback(res *Result) {
	if !e.adaptFeedback || res == nil || res.Plan == nil {
		return
	}
	cands := collectObservations(res)
	// Cheap pre-gate: enter the write span only when some candidate
	// misestimates against the executed plan's own numbers.
	need := false
	for _, c := range cands {
		if _, off := plan.Misestimate(c.est, c.act, e.fbRatio); off {
			need = true
			break
		}
	}
	if !need {
		return
	}
	e.span.Write(func() {
		for _, c := range cands {
			ent, err := e.cat.Get(c.rel)
			if err != nil {
				continue
			}
			st := ent.Stats()
			if st == nil {
				continue
			}
			planned := stats.Selectivity(c.pred, st) * c.raw
			if _, off := plan.Misestimate(planned, c.act, e.fbRatio); !off {
				continue
			}
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
	})
}

// collectObservations extracts complete leaf-scan measurements from a
// finished result, without touching the catalog (lock-free). A
// measurement is complete only when the node was opened exactly once —
// multi-open leaves are probe-parameterized access paths (index
// nested-loop inners, recomputed production sets) whose per-open counts
// do not reflect the static predicate alone — and when no ancestor
// truncates its input (TopN/Limit), which would undercount every leaf
// below it.
func collectObservations(res *Result) []feedbackObs {
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
			pred: n.SourcePred,
			est:  n.Rows,
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
