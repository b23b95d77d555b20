package core

import (
	"fmt"
	"math"
	"slices"
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
	CandidatesBuilt int64 // variants priced and offered to the DP, admitted or not
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
	// Trace, when non-nil, observes every variant the method prices,
	// admitted or not, with its weighted total cost (used by ablation
	// experiments).
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

// Offer implements opt.JoinMethod: it prices the step's Filter Join
// variants, one per (production set × attribute subset ×
// representation) allowed by Limitations 2 and 3, offers each price to
// the step, and builds only the variants the step admits.
func (m *Method) Offer(s *opt.JoinStep) error {
	outer, ri := s.Outer, s.Inner
	if ri.Entry.Kind == catalog.KindBase && !m.Opts.IncludeStored {
		return nil
	}
	if len(s.OuterCols) == 0 {
		return nil
	}
	// Equality closure can equate several outer columns with the same
	// inner column; one binding per inner column suffices (they carry
	// identical values), but the alternatives matter for prefix
	// production sets, where only some equality-class members exist in
	// the prefix subplan.
	keys := dedupeByInner(s.OuterCols, s.InnerCols)
	// The final join-back probes a hash of the restricted inner with the
	// streamed outer, so the outer's physical order survives the Filter
	// Join — extended across the equi-join columns — and magic plans
	// compete in the same order-property buckets as direct joins. The
	// extension runs over the deduplicated pairs, not s.Ordering's full
	// set: the wider one is as true, but it moves plans between memo
	// buckets and so changes how many candidates the search considers.
	ord := outer.Ordering.ExtendEquiv(keys.outer, keys.inner)

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
				if err := m.offerVariant(s, keys, ord, prod, v, repr); err != nil {
					return err
				}
			}
		}
	}
	return nil
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
	k := &fjKeys{}
	for i := range inner {
		if j := slices.Index(k.inner, inner[i]); j >= 0 {
			k.outerAlts[j] = append(k.outerAlts[j], outer[i])
			continue
		}
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

// fjVariant is one priced Filter Join variant: what its Table 1 cost
// formula was computed from, so an admitted variant is built from the
// same numbers. prod is the production-set subplan (the outer itself
// unless prefix).
type fjVariant struct {
	prod        *plan.Node
	prefix      bool
	repr        FilterRepr
	materialize bool

	filterOuter, filterInner []int // block columns of the filter attributes
	innerLocal               []int // filterInner within the inner relation
	bodyCols                 []int // view body columns receiving bindings

	fCard, fSel, innerDomain, restrictRows float64
	keyBytes                               int

	access InnerAccess
	index  *storage.HashIndex // for AccessIndexProbe
	comp   Components
}

// offerVariant prices one Filter Join variant, offers the price to the
// step, and builds the variant only when the step admits it. Every
// priced variant is counted (CandidatesBuilt) and reported to Trace and
// the tracer, admitted or not.
func (m *Method) offerVariant(s *opt.JoinStep, keys *fjKeys, ord plan.Ordering, prod *plan.Node, variant []int, repr FilterRepr) error {
	v, ok, err := m.price(s, keys, prod, variant, repr)
	if err != nil || !ok {
		return err
	}
	c := s.Ctx
	total := c.O.Model.TotalEstimate(v.comp.Total())
	var ch *Choice // built ahead of admission only for an observer
	if m.Trace != nil || c.O.Traces() {
		ch = m.choice(s, keys, &v)
	}
	m.mu.Lock()
	m.Metrics.CandidatesBuilt++
	if m.Trace != nil {
		m.Trace(ch, total)
	}
	m.mu.Unlock()
	if c.O.Traces() {
		c.O.Emit(opt.TraceEvent{Kind: opt.EvFJVariant,
			Subset: c.RelSetName(s.Rels),
			Method: "filterjoin",
			Detail: s.Inner.Entry.Name + ": " + ch.String(),
			Cost:   total})
	}
	if !s.Admit(v.comp.Total(), ord) {
		return nil
	}
	if ch == nil {
		ch = m.choice(s, keys, &v)
	}
	return m.build(s, keys, &v, ch)
}

// price computes one variant's full Table 1 cost breakdown. ok is false
// when the variant cannot run at this step (a filter attribute the
// production set lacks, an unbound function argument, a view binding
// without direct provenance, an outer key the outer lacks).
func (m *Method) price(s *opt.JoinStep, keys *fjKeys, prod *plan.Node, variant []int, repr FilterRepr) (v fjVariant, ok bool, err error) {
	c, outer, ri := s.Ctx, s.Outer, s.Inner
	v.prefix, v.repr = prod != nil, repr
	if prod == nil {
		prod = outer
	}
	v.prod = prod
	e := ri.Entry
	model := c.O.Model

	v.filterOuter = make([]int, len(variant))
	v.filterInner = make([]int, len(variant))
	for i, j := range variant {
		v.filterInner[i] = keys.inner[j]
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
			return v, false, nil
		}
		v.filterOuter[i] = chosen
	}
	v.innerLocal = make([]int, len(v.filterInner))
	for i, col := range v.filterInner {
		v.innerLocal[i] = col - ri.Offset
	}

	// Function relations need every argument bound by the filter set.
	if e.Kind == catalog.KindFunc && !coversArgs(e.ArgCols, v.innerLocal) {
		return v, false, nil
	}

	// View bindings must have direct provenance into the body.
	if e.Kind == catalog.KindView {
		bc, okb, err := magic.ViewBindings(c.O.Cat, e, v.innerLocal)
		if err != nil || !okb {
			return v, false, err
		}
		v.bodyCols = bc
	}

	if !opt.Covers(prod, v.filterOuter) || !opt.Covers(outer, keys.outer) {
		return v, false, nil
	}

	// ---- Cardinalities -------------------------------------------------
	fDistincts := make([]float64, len(v.filterOuter))
	for i, col := range v.filterOuter {
		fDistincts[i] = c.DistinctOfBlockCol(prod, col)
	}
	fCard := stats.ProjectionCardinality(prod.Rows, fDistincts)
	if fCard < 1 && prod.Rows >= 1 {
		fCard = 1
	}
	innerDistincts := make([]float64, len(v.innerLocal))
	for i, col := range v.innerLocal {
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
	v.fCard, v.fSel, v.innerDomain = fCard, fSel, innerDomain

	keyBytes := 0
	for _, col := range v.filterInner {
		keyBytes += c.Layout.Schema.Col(col).Type.Width()
	}
	if keyBytes == 0 {
		keyBytes = 8
	}
	v.keyBytes = keyBytes

	comp := &v.comp

	// ---- JoinCost_P and ProductionCost_P -------------------------------
	comp.JoinCostP = outer.Est
	if v.prefix {
		// The filter set is produced by re-running the prefix subplan;
		// the full outer streams once into the final join unchanged.
		comp.ProductionCostP = prod.Est
	} else {
		pRowBytes := outer.OutSchema.RowWidth()
		pagesP := opt.PagesOf(outer.Rows, pRowBytes)
		matExtra := cost.Estimate{PageWrites: pagesP, PageReads: 2 * pagesP, CPUTuples: 2 * outer.Rows}
		v.materialize = cost.LessEq(model.TotalEstimate(matExtra), model.TotalEstimate(outer.Est))
		if v.materialize {
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
	switch e.Kind {
	case catalog.KindBase, catalog.KindRemote:
		t := e.Table
		raw := ri.RawStats
		scanEst := cost.Estimate{PageReads: float64(t.NumPages()), CPUTuples: 2 * raw.Rows}
		if ri.LocalPred != nil {
			scanEst.CPUTuples += raw.Rows * effSel
		}
		v.restrictRows = raw.Rows * effSel * ri.LocalSel
		comp.FilterCostRk = scanEst
		v.access = AccessScanFilter
		if repr == ReprExact {
			if ix := opt.PickIndex(t, v.innerLocal); ix != nil {
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
					v.access = AccessIndexProbe
					v.index = ix
				}
			}
		}
		if e.Kind == catalog.KindRemote && v.access == AccessScanFilter {
			v.access = AccessRemote
		}

	case catalog.KindView:
		vc, hit, err := m.viewCosterFor(c, ri, v.innerLocal, v.bodyCols)
		if err != nil {
			return v, false, err
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
					Detail: fmt.Sprintf("view %s attrs %v", e.Name, v.innerLocal)})
			} else {
				c.O.Emit(opt.TraceEvent{Kind: opt.EvCosterBuild,
					Detail: fmt.Sprintf("view %s attrs %v (%d sample points)", e.Name, v.innerLocal, len(vc.Points))})
			}
		}
		comp.FilterCostRk = vc.Cost(fSel)
		v.restrictRows = vc.Rows(fSel) * ri.LocalSel
		if ri.LocalPred != nil {
			comp.FilterCostRk.CPUTuples += vc.Rows(fSel)
		}
		v.access = AccessMagicView

	case catalog.KindFunc:
		perCall := opt.FuncPerCall(e, ri.RawStats)
		comp.FilterCostRk = cost.Estimate{FnCalls: fCard, CPUTuples: fCard * (perCall + 1)}
		v.restrictRows = fCard * perCall * ri.LocalSel
		if ri.LocalPred != nil {
			comp.FilterCostRk.CPUTuples += fCard * perCall
		}
		v.access = AccessFuncCalls

	default:
		return v, false, nil
	}

	if e.Site > 0 { // R_k' is restricted at its site and ships back
		comp.AvailCostRkP = cost.Estimate{
			NetBytes:  v.restrictRows * float64(ri.Schema.RowWidth()),
			NetMsgs:   1,
			CPUTuples: v.restrictRows,
		}
	}

	// ---- FinalJoinCost --------------------------------------------------
	comp.FinalJoinCost = cost.Estimate{CPUTuples: v.restrictRows + outer.Rows + s.Rows}
	return v, true, nil
}

// choice is the variant's annotation: what EXPLAIN, the tracer and the
// run time read off a Filter Join node.
func (m *Method) choice(s *opt.JoinStep, keys *fjKeys, v *fjVariant) *Choice {
	ch := &Choice{
		InnerName:        s.Inner.Entry.Name,
		InnerIndex:       s.Inner.Index,
		AllOuterCols:     keys.outer,
		AllInnerCols:     keys.inner,
		FilterOuterCols:  v.filterOuter,
		FilterInnerCols:  v.filterInner,
		Repr:             v.repr,
		BloomBits:        m.Opts.BloomBitsPerEntry,
		Access:           v.access,
		Materialize:      v.materialize,
		PrefixProduction: v.prefix,
		FilterCard:       v.fCard,
		FilterSel:        v.fSel,
		RestrictRows:     v.restrictRows,
		Components:       v.comp,
	}
	if v.prefix {
		ch.ProductionRels = v.prod.Rels.Members()
	}
	return ch
}

// build assembles an admitted variant's plan node and its executable
// spec, and keeps it in the step's memo table.
func (m *Method) build(s *opt.JoinStep, keys *fjKeys, v *fjVariant, ch *Choice) error {
	c, outer, ri := s.Ctx, s.Outer, s.Inner
	e := ri.Entry
	outerFilterPos, _ := opt.OuterKeyPositions(v.prod, v.filterOuter)
	outerAllPos, _ := opt.OuterKeyPositions(outer, keys.outer)
	allInnerLocal := make([]int, len(keys.inner))
	for i, col := range keys.inner {
		allInnerLocal[i] = col - ri.Offset
	}
	op := &fjExecSpec{
		method:         m,
		o:              c.O,
		entry:          e,
		choice:         ch,
		outSchema:      s.OutSchema(),
		outerMake:      outer.Make,
		alias:          ri.Ref.Binding(),
		outerFilterPos: outerFilterPos,
		outerAllPos:    outerAllPos,
		innerFilterLoc: v.innerLocal,
		innerAllLoc:    allInnerLocal,
		residual:       opt.ResidualExpr(s.Residual, s.ColMap()),
		localPred:      relLocalPred(ri),
		index:          v.index,
		bodyCols:       v.bodyCols,
		innerDomain:    v.innerDomain,
		keyBytes:       v.keyBytes,
	}
	if v.index != nil {
		op.ixPerm = indexPermutation(v.index.Cols(), v.innerLocal)
	}
	if v.prefix {
		op.filterMake = v.prod.Make
	}
	if e.Kind == catalog.KindView {
		fs, err := filterSchema(c.O.Cat, e, v.innerLocal)
		if err != nil {
			return err
		}
		op.fSchema = fs
	}
	s.Keep(&plan.Node{
		Kind:     "FilterJoin",
		Detail:   e.Name + ": " + ch.String(),
		Children: []*plan.Node{outer},
		Make:     op.make,
		Extra:    ch,
	})
	return nil
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
