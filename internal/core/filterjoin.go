package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"filterjoin/internal/bloom"
	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/magic"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
)

// DefaultSamplePoints are the filter selectivities at which the view
// coster samples nested optimizations — the equivalence classes of
// Fig 5. More points buy estimate accuracy for optimization time (the
// paper's "performance knob").
var DefaultSamplePoints = []float64{0.02, 0.25, 0.6, 1.0}

// DefaultBloomBitsPerEntry is the Bloom filter budget (≈1% FPR).
const DefaultBloomBitsPerEntry = 10

// Options configures the Filter Join method.
type Options struct {
	// IncludeStored also offers Filter Joins over local base tables
	// (the local semi-join of §5.3). Virtual relations are always
	// considered.
	IncludeStored bool
	// AttrSubsets considers single-attribute filter sets in addition to
	// the all-attributes set when the join has multiple attributes
	// (a Limitation 3 variant; lossy in the "partial SIPS" sense).
	AttrSubsets bool
	// Bloom considers the Bloom filter representation for stored and
	// remote inners.
	Bloom bool
	// BloomBitsPerEntry sizes Bloom filters (default 10).
	BloomBitsPerEntry float64
	// SamplePoints are the view-coster equivalence classes (default
	// DefaultSamplePoints). NewMethod keeps the distinct values in
	// (0,1], ascending.
	SamplePoints []float64
	// DisableExact suppresses the exact filter-set variant, forcing the
	// lossy representation; an ablation/forcing knob for experiments,
	// not something a production configuration would set.
	DisableExact bool
	// PrefixProductionSets relaxes Limitation 2: in addition to the full
	// outer, every prefix subplan of the outer is considered as the
	// production set (paper §3.3 — "if one is willing to incur the
	// increase in complexity ... Limitation 2 is not required"). The
	// filter set from a prefix is less restrictive but can be far
	// cheaper to produce, and the final join still runs against the
	// full outer. Optimization work grows by at most a factor of N.
	PrefixProductionSets bool
}

// Grid returns the Fig-5 selectivity grid, ascending: SamplePoints,
// defaulting to the paper's. The view coster samples at these points,
// the plan cache classes bind parameters by them, and the runtime Filter
// Join classes the actual |F| by them.
func (o Options) Grid() []float64 {
	if len(o.SamplePoints) > 0 {
		return o.SamplePoints
	}
	return DefaultSamplePoints
}

// Metrics instruments the method.
type Metrics struct {
	CandidatesBuilt int64
	CosterBuilds    int64 // parametric costers constructed (each costs a few nested optimizations)
	CosterHits      int64 // costing queries answered from cache in O(1)
	RestrictPlans   int64 // restricted views planned at run time (first Open in a Fig-5 class of a plan node)
	RestrictHits    int64 // Opens that reused a plan node's restricted sub-plan
}

// Method is the Filter Join join-method; register it on an optimizer via
// opt.Optimizer.Register.
type Method struct {
	Opts    Options
	Metrics Metrics
	// Trace, when non-nil, observes every candidate the method builds
	// with its weighted total cost (used by ablation experiments).
	Trace   func(ch *Choice, total float64)
	costers map[costerKey]*ViewCoster
	// mu guards costers, Metrics, and Trace invocations: one Method is
	// shared by an optimizer and all its forks, so concurrent sessions
	// planning on per-query forks reach them from several goroutines.
	mu sync.Mutex
}

// NewMethod creates a Filter Join method with the given options.
// SamplePoints is normalised here, once, into the ascending grid
// plancache.Classify assumes, so the coster, the plan-cache key and the
// run-time sub-plan cache all class by the same points.
func NewMethod(opts Options) *Method {
	if opts.BloomBitsPerEntry <= 0 {
		opts.BloomBitsPerEntry = DefaultBloomBitsPerEntry
	}
	given := append([]float64(nil), opts.SamplePoints...)
	sort.Float64s(given)
	opts.SamplePoints = nil
	for _, p := range given {
		if n := len(opts.SamplePoints); p > 0 && p <= 1 && (n == 0 || p != opts.SamplePoints[n-1]) {
			opts.SamplePoints = append(opts.SamplePoints, p)
		}
	}
	return &Method{Opts: opts, costers: map[costerKey]*ViewCoster{}}
}

// Name implements opt.JoinMethod.
func (m *Method) Name() string { return "filterjoin" }

// ResetCosterCache drops memoized view costers (after data changes).
func (m *Method) ResetCosterCache() {
	m.mu.Lock()
	m.costers = map[costerKey]*ViewCoster{}
	m.mu.Unlock()
}

// Costers exposes the cached parametric costers (experiment E3/E4).
func (m *Method) Costers() []*ViewCoster {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*ViewCoster, 0, len(m.costers))
	for _, vc := range m.costers {
		out = append(out, vc)
	}
	return out
}

// viewCosterFor returns the parametric coster for (view, attrs), building
// it on a miss. The build runs outside the lock (it performs nested
// optimizations); when concurrent forks race to build the same coster,
// the first store wins — both builds are deterministic and identical, so
// the loser's work is merely redundant, never wrong.
func (m *Method) viewCosterFor(c *opt.Ctx, ri *opt.RelInfo, innerLocal, bodyCols []int) (*ViewCoster, bool, error) {
	key := costerKey{view: ri.Entry.Name, attrs: attrsKey(innerLocal)}
	m.mu.Lock()
	vc, ok := m.costers[key]
	m.mu.Unlock()
	if ok {
		return vc, true, nil
	}
	built, err := m.buildViewCoster(c, ri, innerLocal, bodyCols)
	if err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	if vc, ok = m.costers[key]; !ok {
		m.costers[key] = built
		vc = built
	}
	m.mu.Unlock()
	return vc, false, nil
}

// countRestrict records one runtime Open of a magic-view Filter Join:
// served from the node's restricted sub-plan cache, or planned.
func (m *Method) countRestrict(hit bool) {
	m.mu.Lock()
	if hit {
		m.Metrics.RestrictHits++
	} else {
		m.Metrics.RestrictPlans++
	}
	m.mu.Unlock()
}

// fjKeys are a step's equi key pairs with one pair per distinct inner
// column, and for each kept pair every outer column equated to it.
type fjKeys struct {
	outer, inner []int
	outerAlts    [][]int
}

// Candidates implements opt.JoinMethod: it proposes Filter Join plans for
// the step, one per (attribute subset × representation) variant allowed
// by Limitation 3.
func (m *Method) Candidates(s *opt.JoinStep) ([]*plan.Node, error) {
	outer, ri := s.Outer, s.Inner
	if ri.Entry.Kind == catalog.KindBase && !m.Opts.IncludeStored {
		return nil, nil
	}
	if len(s.OuterCols) == 0 {
		return nil, nil
	}
	// Equality closure can equate several outer columns with the same
	// inner column; one binding per inner column suffices (they carry
	// identical values), but the alternatives matter for prefix
	// production sets, where only some equality-class members exist in
	// the prefix subplan.
	keys := dedupeByInner(s.OuterCols, s.InnerCols)

	// Attribute-subset variants (Limitation 3): the full attribute set,
	// plus each single attribute when enabled.
	variants := [][]int{allIdx(len(keys.outer))}
	if m.Opts.AttrSubsets && len(keys.outer) > 1 {
		for j := range keys.outer {
			variants = append(variants, []int{j})
		}
	}

	// Production-set variants: the full outer (Limitation 2), plus every
	// prefix subplan of the outer when the relaxation is enabled.
	prods := []*plan.Node{nil}
	if m.Opts.PrefixProductionSets {
		prods = append(prods, prefixChain(outer)...)
	}

	var out []*plan.Node
	for _, prod := range prods {
		for _, v := range variants {
			var reprs []FilterRepr
			if !m.Opts.DisableExact {
				reprs = append(reprs, ReprExact)
			}
			if m.Opts.Bloom && ri.Entry.Kind != catalog.KindView && ri.Entry.Kind != catalog.KindFunc {
				reprs = append(reprs, ReprBloom)
			}
			for _, repr := range reprs {
				n, err := m.buildCandidate(s, keys, prod, v, repr)
				if err != nil {
					return nil, err
				}
				if n != nil {
					out = append(out, n)
					m.mu.Lock()
					m.Metrics.CandidatesBuilt++
					m.mu.Unlock()
				}
			}
		}
	}
	return out, nil
}

// prefixChain walks the outer's left spine and returns every proper
// prefix subplan (smaller relation subsets of the same block).
func prefixChain(outer *plan.Node) []*plan.Node {
	var out []*plan.Node
	n := outer
	for len(n.Children) > 0 {
		child := n.Children[0]
		if child.Rels == 0 || len(child.ColMap) != len(outer.ColMap) ||
			!child.Rels.SubsetOf(outer.Rels) {
			break
		}
		if child.Rels != n.Rels && child.Rels != outer.Rels {
			out = append(out, child)
		}
		n = child
	}
	return out
}

// dedupeByInner keeps one (outer, inner) pair per distinct inner column
// and returns, for each kept pair, the full list of equivalent outer
// columns.
func dedupeByInner(outer, inner []int) *fjKeys {
	pos := map[int]int{}
	k := &fjKeys{}
	for i := range inner {
		if j, ok := pos[inner[i]]; ok {
			k.outerAlts[j] = append(k.outerAlts[j], outer[i])
			continue
		}
		pos[inner[i]] = len(k.inner)
		k.outer = append(k.outer, outer[i])
		k.inner = append(k.inner, inner[i])
		k.outerAlts = append(k.outerAlts, []int{outer[i]})
	}
	return k
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// buildCandidate assembles one Filter Join plan node with the full
// Table 1 cost breakdown. prod is the production-set subplan; nil means
// the full outer (Limitation 2).
func (m *Method) buildCandidate(s *opt.JoinStep, keys *fjKeys, prod *plan.Node, variant []int, repr FilterRepr) (*plan.Node, error) {
	c, outer, ri := s.Ctx, s.Outer, s.Inner
	allOuter, allInner := keys.outer, keys.inner
	prefix := prod != nil
	if prod == nil {
		prod = outer
	}
	e := ri.Entry
	model := c.O.Model

	filterOuter := make([]int, len(variant))
	filterInner := make([]int, len(variant))
	for i, j := range variant {
		filterInner[i] = allInner[j]
		// Pick an outer column for this attribute that the production
		// set actually carries (any member of the equality class works).
		chosen := -1
		for _, cand := range keys.outerAlts[j] {
			if cand >= 0 && cand < len(prod.ColMap) && prod.ColMap[cand] >= 0 {
				chosen = cand
				break
			}
		}
		if chosen < 0 {
			return nil, nil
		}
		filterOuter[i] = chosen
	}
	innerLocal := make([]int, len(filterInner))
	for i, col := range filterInner {
		innerLocal[i] = col - ri.Offset
	}
	allInnerLocal := make([]int, len(allInner))
	for i, col := range allInner {
		allInnerLocal[i] = col - ri.Offset
	}

	// Function relations need every argument bound by the filter set.
	if e.Kind == catalog.KindFunc && !coversArgs(e.ArgCols, innerLocal) {
		return nil, nil
	}

	// View bindings must have direct provenance into the body.
	var bodyCols []int
	if e.Kind == catalog.KindView {
		bc, ok, err := magic.ViewBindings(c.O.Cat, e, innerLocal)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		bodyCols = bc
	}

	outerFilterPos, ok := opt.OuterKeyPositions(prod, filterOuter)
	if !ok {
		return nil, nil
	}
	outerAllPos, ok := opt.OuterKeyPositions(outer, allOuter)
	if !ok {
		return nil, nil
	}

	// ---- Cardinalities -------------------------------------------------
	fDistincts := make([]float64, len(filterOuter))
	for i, col := range filterOuter {
		fDistincts[i] = c.DistinctOfBlockCol(prod, col)
	}
	fCard := stats.ProjectionCardinality(prod.Rows, fDistincts)
	if fCard < 1 && prod.Rows >= 1 {
		fCard = 1
	}
	innerDistincts := make([]float64, len(innerLocal))
	for i, col := range innerLocal {
		innerDistincts[i] = ri.RawStats.DistinctOf(col)
	}
	innerDomain := stats.ProjectionCardinality(ri.RawStats.Rows, innerDistincts)
	if innerDomain < 1 {
		innerDomain = 1
	}
	fSel := fCard / innerDomain
	if fSel > 1 {
		fSel = 1
	}
	effSel := fSel
	if repr == ReprBloom {
		fpr := bloom.TheoreticalFPR(m.Opts.BloomBitsPerEntry)
		effSel = fSel + fpr*(1-fSel)
		if effSel > 1 {
			effSel = 1
		}
	}

	keyBytes := 0
	for _, col := range filterInner {
		keyBytes += c.Layout.Schema.Col(col).Type.Width()
	}
	if keyBytes == 0 {
		keyBytes = 8
	}

	var comp Components

	// ---- JoinCost_P and ProductionCost_P -------------------------------
	comp.JoinCostP = outer.Est
	materialize := false
	if prefix {
		// The filter set is produced by re-running the prefix subplan;
		// the full outer streams once into the final join unchanged.
		comp.ProductionCostP = prod.Est
	} else {
		pRowBytes := outer.OutSchema.RowWidth()
		pagesP := opt.PagesOf(outer.Rows, pRowBytes)
		matExtra := cost.Estimate{PageWrites: pagesP, PageReads: 2 * pagesP, CPUTuples: 2 * outer.Rows}
		materialize = cost.LessEq(model.TotalEstimate(matExtra), model.TotalEstimate(outer.Est))
		if materialize {
			comp.ProductionCostP = matExtra
		} else {
			comp.ProductionCostP = outer.Est // recompute P for the final join
		}
	}

	// ---- ProjCost_F -----------------------------------------------------
	comp.ProjCostF = cost.Estimate{CPUTuples: prod.Rows}

	// ---- AvailCost_F ----------------------------------------------------
	filterBytes := fCard * float64(keyBytes)
	if repr == ReprBloom {
		filterBytes = math.Ceil(fCard*m.Opts.BloomBitsPerEntry/8) + 64
		comp.AvailCostF.CPUTuples += fCard // building the Bloom filter from the key set
	}
	if e.Site > 0 {
		comp.AvailCostF.NetBytes += filterBytes
		comp.AvailCostF.NetMsgs++
	}
	if e.Kind == catalog.KindView {
		// The runtime writes F into a transient table the magic-rewritten
		// view plan scans.
		comp.AvailCostF.PageWrites += opt.PagesOf(fCard, keyBytes)
	}

	// ---- FilterCost_Rk, AvailCost_Rk', restricted cardinality ----------
	var (
		restrictRows float64
		access       InnerAccess
		chosenIx     *storage.HashIndex
		ixOuterPerm  []int // permutation: index col order -> position in filter key row
	)
	switch e.Kind {
	case catalog.KindBase, catalog.KindRemote:
		t := e.Table
		raw := ri.RawStats
		scanEst := cost.Estimate{PageReads: float64(t.NumPages()), CPUTuples: 2 * raw.Rows}
		if ri.LocalPred != nil {
			scanEst.CPUTuples += raw.Rows * effSel
		}
		restrictRows = raw.Rows * effSel * ri.LocalSel
		comp.FilterCostRk = scanEst
		access = AccessScanFilter
		if repr == ReprExact {
			if ix := opt.PickIndex(t, innerLocal); ix != nil {
				k, matchPages := opt.IndexProbe(raw, t, ix)
				ixEst := cost.Estimate{
					PageReads: fCard * (1 + matchPages),
					CPUTuples: fCard * (k + 2),
				}
				if ri.LocalPred != nil {
					ixEst.CPUTuples += fCard * k
				}
				if cost.Less(model.TotalEstimate(ixEst), model.TotalEstimate(scanEst)) {
					comp.FilterCostRk = ixEst
					access = AccessIndexProbe
					chosenIx = ix
					ixOuterPerm = indexPermutation(ix.Cols(), innerLocal)
				}
			}
		}
		if e.Kind == catalog.KindRemote {
			if access == AccessScanFilter {
				access = AccessRemote
			}
			comp.AvailCostRkP = cost.Estimate{
				NetBytes:  restrictRows * float64(t.Schema().RowWidth()),
				NetMsgs:   1,
				CPUTuples: restrictRows,
			}
		}

	case catalog.KindView:
		vc, hit, err := m.viewCosterFor(c, ri, innerLocal, bodyCols)
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		if hit {
			m.Metrics.CosterHits++
		} else {
			m.Metrics.CosterBuilds++
		}
		m.mu.Unlock()
		if c.O.Traces() {
			if hit {
				c.O.Emit(opt.TraceEvent{Kind: opt.EvCosterHit,
					Detail: fmt.Sprintf("view %s attrs %v", e.Name, innerLocal)})
			} else {
				c.O.Emit(opt.TraceEvent{Kind: opt.EvCosterBuild,
					Detail: fmt.Sprintf("view %s attrs %v (%d sample points)", e.Name, innerLocal, len(vc.Points))})
			}
		}
		comp.FilterCostRk = vc.Cost(fSel)
		restrictRows = vc.Rows(fSel) * ri.LocalSel
		if ri.LocalPred != nil {
			comp.FilterCostRk.CPUTuples += vc.Rows(fSel)
		}
		access = AccessMagicView
		if e.Site > 0 {
			vs := ri.Schema
			comp.AvailCostRkP = cost.Estimate{
				NetBytes:  restrictRows * float64(vs.RowWidth()),
				NetMsgs:   1,
				CPUTuples: restrictRows,
			}
		}

	case catalog.KindFunc:
		perCall := opt.FuncPerCall(e, ri.RawStats)
		comp.FilterCostRk = cost.Estimate{FnCalls: fCard, CPUTuples: fCard * (perCall + 1)}
		restrictRows = fCard * perCall * ri.LocalSel
		if ri.LocalPred != nil {
			comp.FilterCostRk.CPUTuples += fCard * perCall
		}
		access = AccessFuncCalls

	default:
		return nil, nil
	}

	// ---- FinalJoinCost --------------------------------------------------
	comp.FinalJoinCost = cost.Estimate{CPUTuples: restrictRows + outer.Rows + s.Rows}

	ch := &Choice{
		InnerName:        e.Name,
		InnerIndex:       ri.Index,
		AllOuterCols:     allOuter,
		AllInnerCols:     allInner,
		FilterOuterCols:  filterOuter,
		FilterInnerCols:  filterInner,
		Repr:             repr,
		BloomBits:        m.Opts.BloomBitsPerEntry,
		Access:           access,
		Materialize:      materialize,
		PrefixProduction: prefix,
		FilterCard:       fCard,
		FilterSel:        fSel,
		RestrictRows:     restrictRows,
		Components:       comp,
	}
	if prefix {
		ch.ProductionRels = prod.Rels.Members()
	}

	op := &fjExecSpec{
		method:         m,
		o:              c.O,
		entry:          e,
		choice:         ch,
		outSchema:      s.OutSchema,
		outerMake:      outer.Make,
		alias:          ri.Ref.Binding(),
		outerFilterPos: outerFilterPos,
		outerAllPos:    outerAllPos,
		innerFilterLoc: innerLocal,
		innerAllLoc:    allInnerLocal,
		residual:       opt.ResidualExpr(s.Residual, s.ColMap),
		localPred:      relLocalPred(ri),
		index:          chosenIx,
		ixPerm:         ixOuterPerm,
		bodyCols:       bodyCols,
		innerDomain:    innerDomain,
		keyBytes:       keyBytes,
	}
	if prefix {
		op.filterMake = prod.Make
	}
	if e.Kind == catalog.KindView {
		fs, err := filterSchema(c.O.Cat, e, innerLocal)
		if err != nil {
			return nil, err
		}
		op.fSchema = fs
	}

	m.mu.Lock()
	if m.Trace != nil {
		m.Trace(ch, model.TotalEstimate(comp.Total()))
	}
	m.mu.Unlock()
	if c.O.Traces() {
		c.O.Emit(opt.TraceEvent{Kind: opt.EvFJVariant,
			Subset: c.RelSetName(s.Rels),
			Method: "filterjoin",
			Detail: e.Name + ": " + ch.String(),
			Cost:   model.TotalEstimate(comp.Total())})
	}
	// The final join-back probes a hash of the restricted inner with the
	// streamed outer, so the outer's physical order survives the Filter
	// Join — extended across the equi-join columns — and magic plans
	// compete in the same order-property buckets as direct joins. The
	// extension runs over the deduplicated pairs, not s.Ordering's full
	// set: the wider one is as true, but it moves plans between memo
	// buckets and so changes how many candidates the search considers.
	return s.Node(outer.Ordering.ExtendEquiv(allOuter, allInner), &plan.Node{
		Kind:     "FilterJoin",
		Detail:   e.Name + ": " + ch.String(),
		Children: []*plan.Node{outer},
		Est:      comp.Total(),
		Make:     op.make,
		Extra:    ch,
	}), nil
}

func coversArgs(argCols, innerLocal []int) bool {
	have := map[int]bool{}
	for _, c := range innerLocal {
		have[c] = true
	}
	for _, a := range argCols {
		if !have[a] {
			return false
		}
	}
	return true
}

func relLocalPred(ri *opt.RelInfo) expr.Expr {
	if ri.LocalPred == nil {
		return nil
	}
	return expr.Remap(ri.LocalPred, ri.ColMap)
}

// indexPermutation maps each index key column to its position within the
// filter key row (which is laid out in innerLocal order).
func indexPermutation(ixCols, innerLocal []int) []int {
	perm := make([]int, len(ixCols))
	for i, ic := range ixCols {
		perm[i] = -1
		for j, lc := range innerLocal {
			if lc == ic {
				perm[i] = j
				break
			}
		}
	}
	return perm
}
