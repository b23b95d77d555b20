package opt

import (
	"fmt"
	"sort"

	"filterjoin/internal/cost"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
)

// memoEntry is one plan kept for a (relation subset, order property)
// pair: the cheapest known plan whose physical ordering delivers prop.
// prop is the plan's ordering reduced to the block's interesting
// columns (see interestingPrefix); the "" bucket holds the cheapest
// plan regardless of order. total is the node's cost under the model.
type memoEntry struct {
	prop  plan.Ordering
	node  *plan.Node
	total float64
}

// propTable is the per-subset slice of the memo, keyed by the canonical
// property string.
type propTable map[string]*memoEntry

// sortedProps returns the table's property keys in sorted order, so
// every walk over a subset's entries is deterministic.
func sortedProps(tbl propTable) []string {
	keys := make([]string, 0, len(tbl))
	for k := range tbl {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// dominated is the memo's one pruning rule: some kept plan is no
// costlier than total AND delivers the order property of ord (ord
// reduced by interestingPrefix, tested here without building it). With
// order properties disabled every plan delivers the empty property and
// this reduces to the classic cheapest-per-subset rule.
func (c *Ctx) dominated(tbl propTable, total float64, ord plan.Ordering) bool {
	for _, e := range tbl {
		if cost.LessEq(e.total, total) && c.deliversPrefix(e.node.Ordering, ord) {
			return true
		}
	}
	return false
}

// keepCandidate offers a built candidate, whose ordering reduces to the
// memo property prop, as a memo entry for subset ns: it is dropped when
// dominated, and a kept candidate conversely evicts the entries it
// dominates on both cost and order. One call accounts for one
// considered plan in Metrics and the trace; JoinStep.Admit accounts for
// the candidates it never lets a method build.
func (o *Optimizer) keepCandidate(ctx *Ctx, tbl propTable, ns query.RelSet, cand *plan.Node, prop plan.Ordering) {
	o.Metrics.PlansConsidered++
	if len(tbl) == 0 {
		o.Metrics.SubsetsExplored++
	}
	total := cand.Total(o.Model)
	kept := !ctx.dominated(tbl, total, cand.Ordering)
	if kept {
		key := prop.Key()
		tbl[key] = &memoEntry{prop: prop, node: cand, total: total}
		// Each eviction depends on that entry alone, so map order is moot.
		for k, e := range tbl {
			if k != key && cost.LessEq(total, e.total) && cand.Ordering.Satisfies(e.prop) {
				delete(tbl, k)
			}
		}
	}
	if o.Traces() {
		o.trace(TraceEvent{Kind: EvCandidate, Subset: ctx.RelSetName(ns),
			Method: cand.Kind, Detail: cand.Detail,
			Cost: total, Kept: kept, Prop: ctx.propName(prop)})
	}
}

// offerStep offers one DP extension — outer joined with the inner
// relation — to every enabled join method, built in first and then the
// registered ones (the Filter Join), in that fixed order. Each method
// admits and keeps its candidates into tbl, the extended subset's table,
// one at a time.
func (o *Optimizer) offerStep(ctx *Ctx, tbl propTable, outer *plan.Node, inner int) error {
	step := ctx.newJoinStep(outer, inner, tbl)
	step.offerBuiltins()
	for _, m := range o.extra {
		if !o.methodEnabled(m.Name()) {
			continue
		}
		if err := m.Offer(step); err != nil {
			return err
		}
	}
	return nil
}

// keepLeaf seeds a relation's access path into its singleton subset.
func (o *Optimizer) keepLeaf(ctx *Ctx, memo map[query.RelSet]propTable, i int, leaf *plan.Node) {
	s := query.NewRelSet(i)
	prop := ctx.interestingPrefix(leaf.Ordering)
	total := leaf.Total(o.Model)
	memo[s] = propTable{prop.Key(): &memoEntry{prop: prop, node: leaf, total: total}}
	o.Metrics.SubsetsExplored++
	o.Metrics.PlansConsidered++
	if o.Traces() {
		o.trace(TraceEvent{Kind: EvLeaf, Subset: ctx.RelSetName(s),
			Method: leaf.Kind, Detail: leaf.Detail,
			Cost: total, Kept: true, Prop: ctx.propName(prop)})
	}
}

// runDP performs System R bottom-up dynamic programming over left-deep
// join orders with a property-aware memo: for every subset of relations
// the cheapest plan per interesting order is kept, and each subset of
// size k is built by extending every kept size-(k-1) plan with one
// relation through every enabled join method. Cartesian products are
// deferred: a subset is extended with unconnected relations only when
// no predicate-connected extension exists. The returned table holds the
// full subset's surviving entries; finishBest picks among them.
//
// A non-nil order (a permutation of the relation ordinals) constrains
// the search to that one left-deep chain: only order[0] is seeded and a
// subset of size k is extended only by order[k]; every enabled method
// still competes at each step.
func (o *Optimizer) runDP(ctx *Ctx, order []int) (propTable, error) {
	n := len(ctx.Rels)
	memo := map[query.RelSet]propTable{}

	for i, ri := range ctx.Rels {
		if ri.Access != nil && (order == nil || i == order[0]) {
			o.keepLeaf(ctx, memo, i, ri.Access)
		}
	}
	if len(memo) == 0 {
		return nil, fmt.Errorf("opt: no relation that may be outermost has an access path (a function-backed relation cannot be)")
	}

	for size := 2; size <= n; size++ {
		var prev []query.RelSet
		for s := range memo {
			if s.Count() == size-1 {
				prev = append(prev, s)
			}
		}
		// Deterministic exploration order: map iteration would otherwise
		// let exact-cost ties break differently run to run, perturbing
		// EXPLAIN output and traces.
		sort.Slice(prev, func(a, b int) bool { return prev[a] < prev[b] })
		for _, s := range prev {
			tbl := memo[s]
			var exts []int
			if order != nil {
				exts = order[size-1 : size]
			} else {
				exts = o.extensions(ctx, s, n)
			}
			for _, key := range sortedProps(tbl) {
				outer := tbl[key].node
				for _, i := range exts {
					ns := s.With(i)
					if memo[ns] == nil {
						memo[ns] = propTable{}
					}
					if err := o.offerStep(ctx, memo[ns], outer, i); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	full := query.RelSet(0)
	for i := 0; i < n; i++ {
		full = full.With(i)
	}
	tbl, ok := memo[full]
	if !ok || len(tbl) == 0 {
		return nil, fmt.Errorf("opt: no complete plan found (an unbindable function relation, or a forced order no method can follow?)")
	}
	return tbl, nil
}

// finishBest layers the block's output shape on every surviving
// full-subset entry and returns the cheapest finished plan. Running
// finish per entry is what makes sort elision honest: an ordered join
// that is pricier than the hash plan still wins when skipping the final
// Sort more than pays the difference, and the comparison happens on
// completed plans under the optimizer's own cost model.
func (o *Optimizer) finishBest(ctx *Ctx, tbl propTable) (*plan.Node, error) {
	var best *plan.Node
	for _, key := range sortedProps(tbl) {
		p, err := o.finish(ctx, tbl[key].node)
		if err != nil {
			return nil, err
		}
		if best == nil || cost.Less(p.Total(o.Model), best.Total(o.Model)) {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no complete plan found")
	}
	return best, nil
}

// extensions returns the relations the subset should be extended with:
// connected ones if any, otherwise every remaining relation (deferred
// cross products).
func (o *Optimizer) extensions(ctx *Ctx, s query.RelSet, n int) []int {
	var connected, rest []int
	for i := 0; i < n; i++ {
		if s.Has(i) {
			continue
		}
		if ctx.connects(s, i) {
			connected = append(connected, i)
		} else {
			rest = append(rest, i)
		}
	}
	if len(connected) > 0 {
		return connected
	}
	return rest
}
