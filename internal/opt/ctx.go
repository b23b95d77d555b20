package opt

import (
	"fmt"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
)

// RelInfo is the optimizer's per-relation working state for one block.
type RelInfo struct {
	Index  int
	Ref    query.RelRef
	Entry  *catalog.Entry
	Schema *schema.Schema // alias-qualified
	Offset int            // start of this relation's columns in the block layout
	Width  int

	// ColMap maps block layout columns to this relation's own column
	// positions (-1 for columns of other relations).
	ColMap []int

	// Access is the best leaf plan: scan (+ local predicates), shipped
	// remote scan, or fully computed view. It is nil for function-backed
	// relations, which can only be reached through probe-style joins.
	Access *plan.Node

	RawStats      *stats.RelStats // before local predicates
	FilteredStats *stats.RelStats // after local predicates
	FilteredRows  float64
	LocalSel      float64
	LocalPred     expr.Expr // conjunction in block layout; nil if none
}

// PredInfo is one WHERE conjunct with its referenced relation set and,
// when it is a simple cross-relation equality, the two column sides.
type PredInfo struct {
	Expr  expr.Expr
	Rels  query.RelSet
	EquiL int // block column, -1 unless simple equi join pred
	EquiR int
	// Class identifies the equality equivalence class the predicate's
	// columns belong to (-1 for non-equi predicates). Derived marks
	// predicates added by transitive closure (a=b ∧ b=c ⊢ a=c); they
	// enable additional join orders but only one predicate per class
	// counts toward join selectivity.
	Class   int
	Derived bool
}

// Ctx is the per-block optimization context handed to join methods.
type Ctx struct {
	O      *Optimizer
	Block  *query.Block
	Layout *query.Layout
	Rels   []*RelInfo
	Preds  []*PredInfo

	// interestingCols marks block columns whose sort order can matter
	// downstream (merge keys, GROUP BY, ORDER BY provenance); the memo
	// only distinguishes orderings over these columns. Indexed by block
	// column; nil when the property-aware memo is disabled.
	interestingCols []bool

	// given, when non-nil, is the one relation the block names that the
	// catalog does not hold (OptimizeBlockGiven). The block's names
	// resolve through the Ctx — given first, then the catalog — so an
	// optimization reads the catalog and writes nothing.
	given *catalog.Entry
}

// entry resolves a relation name of the block.
func (c *Ctx) entry(name string) (*catalog.Entry, error) {
	if c.given != nil && c.given.Name == name {
		return c.given, nil
	}
	return c.O.Cat.Get(name)
}

// RelationSchema implements query.SchemaResolver over the block's scope.
func (c *Ctx) RelationSchema(name string) (*schema.Schema, error) {
	e, err := c.entry(name)
	if err != nil {
		return nil, err
	}
	return e.Schema(c.O.Cat)
}

func (o *Optimizer) newCtx(b *query.Block, given *catalog.Entry) (*Ctx, error) {
	ctx := &Ctx{O: o, Block: b, given: given}
	layout, err := b.Layout(ctx)
	if err != nil {
		return nil, err
	}
	if err := validateBlock(b, layout); err != nil {
		return nil, err
	}
	ctx.Layout = layout

	// Classify predicates.
	for _, p := range b.Preds {
		pi := &PredInfo{Expr: p, Rels: query.PredRels(p, layout), EquiL: -1, EquiR: -1, Class: -1}
		if c, ok := p.(expr.Cmp); ok && c.Op == expr.EQ {
			lc, lok := c.L.(expr.Col)
			rc, rok := c.R.(expr.Col)
			if lok && rok {
				lr, rr := layout.RelOfCol(lc.Idx), layout.RelOfCol(rc.Idx)
				if lr >= 0 && rr >= 0 && lr != rr {
					pi.EquiL, pi.EquiR = lc.Idx, rc.Idx
				}
			}
		}
		ctx.Preds = append(ctx.Preds, pi)
	}
	ctx.closeEquiClasses()
	ctx.computeInterestingCols()

	// Build per-relation info and leaf access plans.
	for i, ref := range b.Rels {
		ri, err := o.buildRelInfo(ctx, i, ref)
		if err != nil {
			return nil, err
		}
		ctx.Rels = append(ctx.Rels, ri)
	}
	return ctx, nil
}

func (o *Optimizer) buildRelInfo(ctx *Ctx, i int, ref query.RelRef) (*RelInfo, error) {
	entry, err := ctx.entry(ref.Name)
	if err != nil {
		return nil, err
	}
	sch, err := entry.Schema(o.Cat)
	if err != nil {
		return nil, err
	}
	sch = sch.Rename(ref.Binding())
	ri := &RelInfo{
		Index:  i,
		Ref:    ref,
		Entry:  entry,
		Schema: sch,
		Offset: ctx.Layout.Offsets[i],
		Width:  ctx.Layout.Widths[i],
	}
	ri.ColMap = plan.EmptyColMap(ctx.Layout.Schema.Len())
	for j := 0; j < ri.Width; j++ {
		ri.ColMap[ri.Offset+j] = j
	}

	// Gather local predicates (exactly this relation referenced).
	var locals []expr.Expr
	for _, p := range ctx.Preds {
		if p.Rels == query.NewRelSet(i) {
			locals = append(locals, p.Expr)
		}
	}
	if len(locals) > 0 {
		ri.LocalPred = expr.NewAnd(locals...)
	}

	switch entry.Kind {
	case catalog.KindBase, catalog.KindRemote:
		o.buildStoredLeaf(ctx, ri)
	case catalog.KindView:
		if err := o.buildViewLeaf(ctx, ri); err != nil {
			return nil, err
		}
	case catalog.KindFunc:
		o.buildFuncInfo(ctx, ri)
	default:
		return nil, fmt.Errorf("opt: unsupported relation kind for %q", ref.Name)
	}
	return ri, nil
}

// validateBlock rejects blocks whose expressions reference columns
// outside the layout — programmatic construction errors that would
// otherwise only surface as execution failures.
func validateBlock(b *query.Block, layout *query.Layout) error {
	w := layout.Schema.Len()
	check := func(e expr.Expr, what string) error {
		cols := map[int]bool{}
		expr.CollectCols(e, cols)
		for c := range cols {
			if c < 0 || c >= w {
				return fmt.Errorf("opt: %s %q references column %d outside the block layout (width %d)",
					what, e.String(), c, w)
			}
		}
		return nil
	}
	for _, p := range b.Preds {
		if err := check(p, "predicate"); err != nil {
			return err
		}
	}
	for _, o := range b.Proj {
		if err := check(o.Expr, "projection"); err != nil {
			return err
		}
	}
	for _, a := range b.Aggs {
		if a.Arg != nil {
			if err := check(a.Arg, "aggregate"); err != nil {
				return err
			}
		}
	}
	for _, g := range b.GroupBy {
		if g < 0 || g >= w {
			return fmt.Errorf("opt: GROUP BY column %d outside the block layout (width %d)", g, w)
		}
	}
	return nil
}

func (o *Optimizer) buildStoredLeaf(ctx *Ctx, ri *RelInfo) {
	t := ri.Entry.Table
	raw := ri.Entry.Stats()
	if raw == nil {
		raw = &stats.RelStats{Rows: float64(t.NumRows()), Cols: make([]stats.ColStats, ri.Width)}
	}
	ri.RawStats = raw
	sel := 1.0
	var localLocal expr.Expr // local predicate remapped to relation-local layout
	if ri.LocalPred != nil {
		localLocal = expr.Remap(ri.LocalPred, ri.ColMap)
		sel = stats.Selectivity(localLocal, raw)
	}
	ri.LocalSel = sel
	ri.FilteredStats = raw.Scale(sel)
	ri.FilteredRows = ri.FilteredStats.Rows

	pages := float64(storage.PagesFor(int(raw.Rows+0.5), t.RowsPerPage()))
	est := cost.Estimate{PageReads: pages, CPUTuples: raw.Rows}
	if localLocal != nil {
		est.CPUTuples += raw.Rows // Select charges one CPU op per evaluated row
	}
	detail := ri.Ref.Name
	if ri.Ref.Alias != "" && ri.Ref.Alias != ri.Ref.Name {
		detail += " " + ri.Ref.Alias
	}
	kind := "TableScan"
	alias := ri.Ref.Binding()
	mk := func() exec.Operator {
		var op exec.Operator = exec.NewTableScan(t, alias)
		if localLocal != nil {
			op = exec.NewSelect(op, localLocal)
		}
		return op
	}
	// Index-assisted access: an equality predicate on an indexed column
	// turns the leaf into an index lookup when that is cheaper.
	if localLocal != nil && o.methodEnabled("indexaccess") {
		if ixEst, ixMk, ixDetail, ok := o.indexAccessPlan(ri, localLocal, alias); ok {
			if cost.Less(o.Model.TotalEstimate(ixEst), o.Model.TotalEstimate(est)) {
				est, mk = ixEst, ixMk
				kind = "IndexLookup"
				detail += " " + ixDetail
			}
		}
	}
	if ri.Entry.Kind == catalog.KindRemote {
		kind = "ShipScan"
		var at string
		mk, at = shipLeaf(ri, &est, mk)
		detail += at
	}
	if localLocal != nil {
		detail += " σ(" + localLocal.String() + ")"
	}
	// Heap scans, index lookups, and Ship promise no order.
	ri.Access = plan.NewNode(nil, &plan.Node{
		Kind:      kind,
		Detail:    detail,
		Est:       est,
		Rows:      ri.FilteredRows,
		Stats:     ri.FilteredStats,
		OutSchema: ri.Schema,
		ColMap:    ri.ColMap,
		Rels:      query.NewRelSet(ri.Index),
		Make:      mk,
		// Feedback provenance: the adaptive layer maps this node's
		// measured output rows back to (relation, predicate) to correct
		// the predicate's selectivity estimate (DESIGN.md §12).
		Source:     ri.Entry.Name,
		SourcePred: localLocal,
		SourceRows: raw.Rows,
	})
}

// conjuncts flattens a predicate into its top-level AND conjuncts.
func conjuncts(e expr.Expr) []expr.Expr {
	if a, ok := e.(expr.And); ok {
		var out []expr.Expr
		for _, k := range a.Kids {
			out = append(out, conjuncts(k)...)
		}
		return out
	}
	return []expr.Expr{e}
}

// indexAccessPlan looks for an equality conjunct `col = constant` (a
// literal or bound parameter) on an indexed column of the relation and
// builds an index-lookup leaf: one index probe plus the matching pages,
// with the remaining conjuncts applied on top. The key is resolved at
// Open, so a cached parameterized plan probes with the current binding.
// localLocal is the relation-local predicate.
func (o *Optimizer) indexAccessPlan(ri *RelInfo, localLocal expr.Expr, alias string) (cost.Estimate, func() exec.Operator, string, bool) {
	t := ri.Entry.Table
	raw := ri.RawStats
	cs := conjuncts(localLocal)
	for pick, cj := range cs {
		cmp, ok := cj.(expr.Cmp)
		if !ok {
			continue
		}
		col, op, keyExpr, ok := expr.ColConst(cmp)
		if !ok || op != expr.EQ {
			continue
		}
		ix := t.IndexOn([]int{col.Idx})
		if ix == nil {
			continue
		}
		k, matchPages := IndexProbe(raw, t, ix)
		est := cost.Estimate{PageReads: 1 + matchPages, CPUTuples: k}
		var rest []expr.Expr
		for j, other := range cs {
			if j != pick {
				rest = append(rest, other)
			}
		}
		var restPred expr.Expr
		if len(rest) > 0 {
			restPred = expr.NewAnd(rest...)
			est.CPUTuples += k
		}
		keyExprs := []expr.Expr{keyExpr}
		mk := func() exec.Operator {
			var op exec.Operator = exec.NewIndexLookupExprs(t, ix, keyExprs, alias)
			if restPred != nil {
				op = exec.NewSelect(op, restPred)
			}
			return op
		}
		return est, mk, fmt.Sprintf("via %s on %s", ix.Name(), cj.String()), true
	}
	return cost.Estimate{}, nil, "", false
}

// shipLeaf prices shipping a remote leaf's locally filtered output to
// the query site into est — one message, the filtered rows' bytes, one
// CPU operation per shipped row — and wraps mk in that Ship. It returns
// the wrapped maker and the leaf's " @siteN" detail.
func shipLeaf(ri *RelInfo, est *cost.Estimate, mk func() exec.Operator) (func() exec.Operator, string) {
	rowBytes, site := ri.Schema.RowWidth(), ri.Entry.Site
	est.NetMsgs++
	est.NetBytes += ri.FilteredRows * float64(rowBytes)
	est.CPUTuples += ri.FilteredRows
	return func() exec.Operator { return exec.NewShip(mk(), rowBytes, site) }, fmt.Sprintf(" @site%d", site)
}

// viewLeaf optimizes (and caches) the unrestricted full computation of a
// view: the "FULL COMPUTATION" row of Fig 6 for table expressions.
func (o *Optimizer) viewLeaf(e *catalog.Entry) (*plan.Node, error) {
	if n, ok := o.viewLeafCache[e.Name]; ok {
		return n, nil
	}
	n, err := o.OptimizeBlock(e.ViewDef)
	if err != nil {
		return nil, fmt.Errorf("opt: optimizing view %q: %w", e.Name, err)
	}
	o.viewLeafCache[e.Name] = n
	return n, nil
}

func (o *Optimizer) buildViewLeaf(ctx *Ctx, ri *RelInfo) error {
	nested, err := o.viewLeaf(ri.Entry)
	if err != nil {
		return err
	}
	raw := nested.Stats
	if raw == nil {
		raw = &stats.RelStats{Rows: nested.Rows, Cols: make([]stats.ColStats, ri.Width)}
	}
	ri.RawStats = raw
	sel := 1.0
	var localLocal expr.Expr
	if ri.LocalPred != nil {
		localLocal = expr.Remap(ri.LocalPred, ri.ColMap)
		sel = stats.Selectivity(localLocal, raw)
	}
	ri.LocalSel = sel
	ri.FilteredStats = raw.Scale(sel)
	ri.FilteredRows = ri.FilteredStats.Rows

	est := nested.Est
	if localLocal != nil {
		est.CPUTuples += nested.Rows
	}
	detail := "view " + ri.Ref.Name
	if localLocal != nil {
		detail += " σ(" + localLocal.String() + ")"
	}
	mk := func() exec.Operator {
		var op exec.Operator = nested.Make()
		if localLocal != nil {
			op = exec.NewSelect(op, localLocal)
		}
		return op
	}
	if ri.Entry.Site > 0 {
		// Remote view: the body executes at the remote site; only the
		// (locally filtered) result crosses the network.
		var at string
		mk, at = shipLeaf(ri, &est, mk)
		detail += at
	}
	ri.Access = plan.NewNode(viewLeafOrdering(nested, ri), &plan.Node{
		Kind:      "ViewScan",
		Detail:    detail,
		Children:  []*plan.Node{nested},
		Est:       est,
		Rows:      ri.FilteredRows,
		Stats:     ri.FilteredStats,
		OutSchema: ri.Schema,
		ColMap:    ri.ColMap,
		Rels:      query.NewRelSet(ri.Index),
		Make:      mk,
	})
	return nil
}

// viewLeafOrdering translates an ordering the view's body delivers
// (e.g. a view ending in a Sort) from the body's block layout into the
// outer block's: each body column maps through the body plan's ColMap
// to a view output position, which sits at ri.Offset in the outer
// layout. Filters and Ship preserve row order, so the ViewScan keeps it.
func viewLeafOrdering(nested *plan.Node, ri *RelInfo) plan.Ordering {
	if len(nested.Ordering) == 0 {
		return nil
	}
	var out plan.Ordering
	for _, k := range nested.Ordering {
		var cols []int
		for _, c := range k.Cols {
			if c >= 0 && c < len(nested.ColMap) {
				if pos := nested.ColMap[c]; pos >= 0 && pos < ri.Width {
					cols = append(cols, ri.Offset+pos)
				}
			}
		}
		if len(cols) == 0 {
			break
		}
		out = append(out, plan.OrderKey{Cols: cols, Desc: k.Desc})
	}
	return out
}

func (o *Optimizer) buildFuncInfo(ctx *Ctx, ri *RelInfo) {
	raw := ri.Entry.Stats()
	if raw == nil {
		raw = &stats.RelStats{Rows: 1000, Cols: make([]stats.ColStats, ri.Width)}
	}
	ri.RawStats = raw
	sel := 1.0
	if ri.LocalPred != nil {
		local := expr.Remap(ri.LocalPred, ri.ColMap)
		sel = stats.Selectivity(local, raw)
	}
	ri.LocalSel = sel
	ri.FilteredStats = raw.Scale(sel)
	ri.FilteredRows = ri.FilteredStats.Rows
	// No Access plan: a function-backed relation has no enumerable
	// extension; it is joined only via probe-style methods.
}

// closeEquiClasses computes the transitive closure of cross-relation
// equalities: columns are grouped with union-find and derived equality
// predicates are added for pairs in one class that lack a direct
// predicate (so that, e.g., D⋈V is a keyed join when E.did=D.did and
// E.did=V.did both hold — the paper's Fig 3 orders 3 and 4).
func (c *Ctx) closeEquiClasses() {
	n := c.Layout.Schema.Len()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	direct := map[[2]int]bool{}
	for _, p := range c.Preds {
		if p.EquiL >= 0 {
			union(p.EquiL, p.EquiR)
			a, b := p.EquiL, p.EquiR
			if a > b {
				a, b = b, a
			}
			direct[[2]int{a, b}] = true
		}
	}
	// Collect class members that participate in some equality, classes
	// in order of first appearance in c.Preds: the derived predicates'
	// order fixes the equi-key order, and with it plans and EXPLAIN.
	classes := map[int][]int{}
	var roots []int
	for _, p := range c.Preds {
		if p.EquiL >= 0 {
			r := find(p.EquiL)
			if _, ok := classes[r]; !ok {
				roots = append(roots, r)
			}
			classes[r] = appendUnique(classes[r], p.EquiL)
			classes[r] = appendUnique(classes[r], p.EquiR)
		}
	}
	for _, p := range c.Preds {
		if p.EquiL >= 0 {
			p.Class = find(p.EquiL)
		}
	}
	for _, root := range roots {
		members := classes[root]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a > b {
					a, b = b, a
				}
				if direct[[2]int{a, b}] {
					continue
				}
				if c.Layout.RelOfCol(a) == c.Layout.RelOfCol(b) {
					continue
				}
				e := expr.Eq(
					expr.NewCol(a, c.Layout.Schema.Col(a).QualifiedName()),
					expr.NewCol(b, c.Layout.Schema.Col(b).QualifiedName()),
				)
				c.Preds = append(c.Preds, &PredInfo{
					Expr:    e,
					Rels:    query.NewRelSet(c.Layout.RelOfCol(a), c.Layout.RelOfCol(b)),
					EquiL:   a,
					EquiR:   b,
					Class:   root,
					Derived: true,
				})
			}
		}
	}
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// ApplicablePreds returns the predicates that become evaluable when the
// inner relation joins the outer subset: they reference the inner, span
// at least two relations, and everything they reference is available.
func (c *Ctx) ApplicablePreds(outer query.RelSet, inner int) []*PredInfo {
	all := outer.With(inner)
	n := 0
	for _, p := range c.Preds {
		if p.applicable(all, inner) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*PredInfo, 0, n)
	for _, p := range c.Preds {
		if p.applicable(all, inner) {
			out = append(out, p)
		}
	}
	return out
}

// connects reports whether some predicate becomes evaluable when the
// inner relation joins the outer subset (ApplicablePreds is non-empty).
func (c *Ctx) connects(outer query.RelSet, inner int) bool {
	all := outer.With(inner)
	for _, p := range c.Preds {
		if p.applicable(all, inner) {
			return true
		}
	}
	return false
}

func (p *PredInfo) applicable(all query.RelSet, inner int) bool {
	return p.Rels.Has(inner) && p.Rels.Count() >= 2 && p.Rels.SubsetOf(all)
}

// equiSplit partitions applicable predicates into equi-join pairs
// (outer block column, inner block column) and residual predicates.
func (c *Ctx) equiSplit(preds []*PredInfo, outer query.RelSet, inner int) (outerCols, innerCols []int, residual []*PredInfo) {
	if n := len(preds); n > 0 {
		buf := make([]int, 2*n)
		outerCols, innerCols = buf[:0:n], buf[n:n:2*n]
	}
	for _, p := range preds {
		if p.EquiL >= 0 {
			lRel := c.Layout.RelOfCol(p.EquiL)
			rRel := c.Layout.RelOfCol(p.EquiR)
			switch {
			case lRel == inner && outer.Has(rRel):
				outerCols = append(outerCols, p.EquiR)
				innerCols = append(innerCols, p.EquiL)
				continue
			case rRel == inner && outer.Has(lRel):
				outerCols = append(outerCols, p.EquiL)
				innerCols = append(innerCols, p.EquiR)
				continue
			}
		}
		residual = append(residual, p)
	}
	return outerCols, innerCols, residual
}

// DistinctOfBlockCol returns the distinct-count estimate of a block
// layout column within a plan node's output.
func (c *Ctx) DistinctOfBlockCol(n *plan.Node, col int) float64 {
	if n.ColMap == nil || col < 0 || col >= len(n.ColMap) {
		return n.Rows
	}
	pos := n.ColMap[col]
	if pos < 0 || n.Stats == nil || pos >= len(n.Stats.Cols) {
		return n.Rows
	}
	return n.Stats.DistinctOf(pos)
}

// predSelectivity estimates the selectivity of one applicable join
// predicate between the outer plan and the inner relation.
func (c *Ctx) predSelectivity(p *PredInfo, outer *plan.Node, ri *RelInfo) float64 {
	if p.EquiL >= 0 {
		dl := c.sideDistinct(p.EquiL, outer, ri)
		dr := c.sideDistinct(p.EquiR, outer, ri)
		return stats.JoinSelectivity(dl, dr)
	}
	return 1.0 / 3.0
}

func (c *Ctx) sideDistinct(col int, outer *plan.Node, ri *RelInfo) float64 {
	rel := c.Layout.RelOfCol(col)
	if rel == ri.Index {
		return ri.FilteredStats.DistinctOf(col - ri.Offset)
	}
	return c.DistinctOfBlockCol(outer, col)
}

// joinRows estimates the output cardinality of joining outer with the
// inner relation under the applicable predicates. Only one equality per
// equivalence class counts: a=b ∧ b=c ∧ a=c are not independent filters.
func (c *Ctx) joinRows(outer *plan.Node, ri *RelInfo, preds []*PredInfo) float64 {
	sel := 1.0
	for i, p := range preds {
		if p.Class >= 0 && classSeen(preds[:i], p.Class) {
			continue
		}
		sel *= c.predSelectivity(p, outer, ri)
	}
	rows := outer.Rows * ri.FilteredRows * sel
	if rows < 0 {
		rows = 0
	}
	return rows
}

func classSeen(preds []*PredInfo, class int) bool {
	for _, p := range preds {
		if p.Class == class {
			return true
		}
	}
	return false
}

// joinStats derives the output statistics of that join (outer columns
// followed by inner columns) at its estimated rows.
func (c *Ctx) joinStats(outer *plan.Node, ri *RelInfo, preds []*PredInfo, rows float64) *stats.RelStats {
	outStats := outer.Stats
	if outStats == nil {
		outStats = &stats.RelStats{Rows: outer.Rows, Cols: make([]stats.ColStats, outer.OutSchema.Len())}
	}
	combined := stats.Concat(outStats, ri.FilteredStats, rows)
	// Equi-join columns: both sides end up with the same value set, whose
	// size is at most the smaller side's distinct count.
	outerWidth := outer.OutSchema.Len()
	for _, p := range preds {
		if p.EquiL < 0 {
			continue
		}
		lp := c.combinedPos(p.EquiL, outer, ri, outerWidth)
		rp := c.combinedPos(p.EquiR, outer, ri, outerWidth)
		if lp < 0 || rp < 0 || lp >= len(combined.Cols) || rp >= len(combined.Cols) {
			continue
		}
		d := combined.Cols[lp].Distinct
		if combined.Cols[rp].Distinct < d {
			d = combined.Cols[rp].Distinct
		}
		if d > rows {
			d = rows
		}
		combined.Cols[lp].Distinct = d
		combined.Cols[rp].Distinct = d
	}
	return combined
}

// combinedPos maps a block-layout column to its position in the
// outer‖inner combined output, or -1.
func (c *Ctx) combinedPos(col int, outer *plan.Node, ri *RelInfo, outerWidth int) int {
	if col < 0 {
		return -1
	}
	if col < len(outer.ColMap) && outer.ColMap[col] >= 0 {
		return outer.ColMap[col]
	}
	if col < len(ri.ColMap) && ri.ColMap[col] >= 0 {
		return ri.ColMap[col] + outerWidth
	}
	return -1
}

// ResidualExpr conjoins and remaps residual predicates into the combined
// output layout described by colMap; returns nil when empty.
func ResidualExpr(preds []*PredInfo, colMap []int) expr.Expr {
	if len(preds) == 0 {
		return nil
	}
	kids := make([]expr.Expr, len(preds))
	for i, p := range preds {
		kids[i] = expr.Remap(p.Expr, colMap)
	}
	return expr.NewAnd(kids...)
}

// OuterKeyPositions maps block-layout key columns into positions within
// the outer plan's output; returns false if any is unavailable.
func OuterKeyPositions(outer *plan.Node, cols []int) ([]int, bool) {
	if !Covers(outer, cols) {
		return nil, false
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = outer.ColMap[c]
	}
	return out, true
}

// Covers reports whether every block-layout column in cols is in n's
// output: the check OuterKeyPositions makes, without building the
// positions, for pricing a candidate before it is admitted.
func Covers(n *plan.Node, cols []int) bool {
	for _, c := range cols {
		if c < 0 || c >= len(n.ColMap) || n.ColMap[c] < 0 {
			return false
		}
	}
	return true
}
