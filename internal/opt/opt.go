// Package opt implements a System R style cost-based query optimizer:
// bottom-up dynamic programming over left-deep join orders, with
// per-join selection among multiple join methods. Join methods are
// partly built in (nested loops, hash, sort-merge, index nested loops,
// function probes, remote fetch-matches) and partly pluggable via the
// JoinMethod interface — the paper's Filter Join (internal/core)
// registers itself through that interface, exactly as §3 of the paper
// prescribes: magic sets enters the optimizer as one more join method
// with its own cost formula, not as a query rewrite. Every method, built
// in or registered, prices a candidate before constructing it: the DP
// admits it on its estimate and order against the live memo table, and
// only an admitted candidate is built (JoinStep.Admit, JoinStep.Keep).
package opt

import (
	"fmt"
	"sync"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
)

// JoinMethod is a pluggable join algorithm the DP loop consults at every
// join step. Offer proposes zero or more plans for the step — its outer
// (a plan over some subset of the block's relations) joined with its
// inner relation — one at a time: price the candidate (estimate and
// delivered ordering), offer the price to step.Admit, and only if it is
// admitted build the node and hand it to step.Keep, so its output is the
// outer's columns followed by the inner relation's.
type JoinMethod interface {
	Name() string
	Offer(step *JoinStep) error
}

// Metrics instruments one optimizer (cumulative across invocations).
// Experiment E7 uses PlansConsidered to show that enabling the Filter
// Join does not change the asymptotic complexity of optimization, and E4
// uses NestedOptimizations to show Assumption 1 holds via caching.
type Metrics struct {
	PlansConsidered     int64 // candidate plans costed
	SubsetsExplored     int64 // DP table entries created
	NestedOptimizations int64 // recursive OptimizeBlock invocations
}

// Merge folds the counters collected by a forked optimizer back in.
func (m *Metrics) Merge(other Metrics) {
	m.PlansConsidered += other.PlansConsidered
	m.SubsetsExplored += other.SubsetsExplored
	m.NestedOptimizations += other.NestedOptimizations
}

// Optimizer is a reusable cost-based optimizer over a catalog.
type Optimizer struct {
	Cat   *catalog.Catalog
	Model cost.Model

	// Disabled turns off join methods by name ("hash", "merge", "nlj",
	// "indexnl", "funcprobe", "fetchmatches", or an extra method's name).
	Disabled map[string]bool

	// MaxRelations caps the DP size (default 14).
	MaxRelations int

	// DisableOrderProps turns off interesting-order tracking: the memo
	// collapses to one plan per relation subset, merge joins always
	// re-sort their inputs, aggregation always hashes, and the final
	// ORDER BY always sorts — the pre-property optimizer, kept for
	// ablation and differential testing.
	DisableOrderProps bool

	// Deprecated: no effect. Every query runs on one thread; the field
	// remains only because the frozen bench/ sources assign it.
	DegreeOfParallelism int

	// BatchSize is the executor morsel size recorded on emitted plan
	// roots (and shown by EXPLAIN as batch=N when above 1). It does not
	// influence plan choice: counter totals are identical at every
	// morsel size by construction.
	BatchSize int

	Metrics Metrics

	// Tracer, when set, observes the search: DP subsets explored, join
	// candidates kept/pruned with their costs, nested optimizations,
	// parametric-coster cache traffic, and Filter Join variants.
	Tracer Tracer

	extra         []JoinMethod
	viewLeafCache map[string]*plan.Node
	depth         int

	// metricsMu guards concurrent MergeMetrics calls from sessions folding
	// per-query fork counters back into a shared prototype optimizer. The
	// rest of the struct is NOT protected: an optimization mutates depth,
	// Metrics and viewLeafCache — and nothing outside the optimizer — so
	// it must run on a private fork when the optimizer is shared.
	metricsMu sync.Mutex
}

// New creates an optimizer over cat with the given cost model.
func New(cat *catalog.Catalog, model cost.Model) *Optimizer {
	return &Optimizer{
		Cat:           cat,
		Model:         model,
		Disabled:      map[string]bool{},
		MaxRelations:  14,
		viewLeafCache: map[string]*plan.Node{},
	}
}

// Register adds an external join method (e.g. the Filter Join).
func (o *Optimizer) Register(m JoinMethod) { o.extra = append(o.extra, m) }

// ExtraMethods returns the registered external methods.
func (o *Optimizer) ExtraMethods() []JoinMethod { return o.extra }

// InvalidateCaches drops memoized view leaves (after catalog changes).
func (o *Optimizer) InvalidateCaches() {
	o.viewLeafCache = map[string]*plan.Node{}
}

// Batch returns the effective executor batch size (at least 1).
func (o *Optimizer) Batch() int {
	if o.BatchSize < 1 {
		return 1
	}
	return o.BatchSize
}

// Fork returns an isolated optimizer for one query of a concurrent
// session (or one Filter Join execution's runtime planning): the same
// catalog, cost model and registered methods, a private copy of the
// Disabled toggles, and fresh search state (view-leaf memo, depth,
// Metrics). Planning writes nothing outside the optimizer, so forks
// never contend and plan exactly as the parent alone would. BatchSize
// and Tracer carry over (a fork plans for the same executor and is
// observed by the same tracer); callers fold Metrics back with
// MergeMetrics.
func (o *Optimizer) Fork() *Optimizer {
	f := &Optimizer{
		Cat:               o.Cat,
		Model:             o.Model,
		Disabled:          make(map[string]bool, len(o.Disabled)),
		MaxRelations:      o.MaxRelations,
		DisableOrderProps: o.DisableOrderProps,
		BatchSize:         o.BatchSize,
		Tracer:            o.Tracer,
		extra:             o.extra,
		viewLeafCache:     map[string]*plan.Node{},
	}
	for k, v := range o.Disabled {
		f.Disabled[k] = v
	}
	return f
}

// MergeMetrics folds a forked optimizer's counters into this one under a
// lock, so concurrent sessions optimizing on per-query forks can account
// their search work against the shared prototype.
func (o *Optimizer) MergeMetrics(m Metrics) {
	o.metricsMu.Lock()
	o.Metrics.Merge(m)
	o.metricsMu.Unlock()
}

// OptimizeBlock optimizes a query block and returns the best physical
// plan, including the block's output shape (projection / aggregation /
// distinct) on top of the best join order.
func (o *Optimizer) OptimizeBlock(b *query.Block) (*plan.Node, error) {
	return o.optimize(b, nil, nil)
}

// OptimizeBlockGiven is OptimizeBlock for a block that names one
// relation the catalog does not hold: given (catalog.TableEntry),
// resolved by its Name ahead of the catalog for this block only. It is
// how a restricted view is planned as a function of its filter set
// (paper §4.2) with the catalog left untouched.
func (o *Optimizer) OptimizeBlockGiven(b *query.Block, given *catalog.Entry) (*plan.Node, error) {
	return o.optimize(b, given, nil)
}

// OptimizeBlockWithOrder optimizes b with the join order fixed to the
// given permutation of relation ordinals: the DP collapses to a single
// left-deep chain, but every enabled join method still competes at each
// step, and candidates flow through the same keep/prune/trace path as
// the free search (per-property entries included). Experiment E2 uses
// this to cost all six orders of Fig 3.
func (o *Optimizer) OptimizeBlockWithOrder(b *query.Block, order []int) (*plan.Node, error) {
	if len(order) != len(b.Rels) {
		return nil, fmt.Errorf("opt: order has %d entries for %d relations", len(order), len(b.Rels))
	}
	var seen query.RelSet
	for _, r := range order {
		if r < 0 || r >= len(order) || seen.Has(r) {
			return nil, fmt.Errorf("opt: order %v is not a permutation of the block's %d relations", order, len(order))
		}
		seen = seen.With(r)
	}
	return o.optimize(b, nil, order)
}

// optimize is the one entry to the search. order, when non-nil, is a
// validated permutation the DP is constrained to; given is the block's
// by-value relation, if it has one.
func (o *Optimizer) optimize(b *query.Block, given *catalog.Entry, order []int) (*plan.Node, error) {
	if len(b.Rels) == 0 {
		return nil, fmt.Errorf("opt: block has no relations")
	}
	if len(b.Rels) > o.MaxRelations {
		return nil, fmt.Errorf("opt: %d relations exceeds MaxRelations=%d", len(b.Rels), o.MaxRelations)
	}
	o.depth++
	defer func() { o.depth-- }()
	if o.depth > 16 {
		return nil, fmt.Errorf("opt: nested optimization too deep (view cycle?)")
	}
	if o.depth > 1 {
		o.Metrics.NestedOptimizations++
		o.trace(TraceEvent{Kind: EvNested, Depth: o.depth, Detail: blockDesc(b)})
	}

	ctx, err := o.newCtx(b, given)
	if err != nil {
		return nil, err
	}
	tbl, err := o.runDP(ctx, order)
	if err != nil {
		return nil, err
	}
	p, err := o.finishBest(ctx, tbl)
	if err != nil {
		return nil, err
	}
	// Only the top-level block carries the batch stamp.
	if o.depth == 1 {
		if bs := o.Batch(); bs > 1 {
			p.BatchSize = bs
		}
	}
	return p, nil
}

// Depth reports the current nesting depth (1 while inside a top-level
// optimization); used by external methods to bound recursion.
func (o *Optimizer) Depth() int { return o.depth }

// methodEnabled reports whether the named method may produce candidates.
func (o *Optimizer) methodEnabled(name string) bool { return !o.Disabled[name] }
