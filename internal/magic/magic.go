// Package magic implements classical magic-sets rewriting as a *query
// transformation* — the pre-paper state of the art (Starburst [MP94]).
// Given a query block, a view to restrict, and a SIPS (the subset of the
// other relations whose join produces the bindings), it materializes the
// Fig 2 structure as views in a private copy of the catalog:
//
//	PartialResult  — the join of the SIPS relations with their predicates
//	Filter         — SELECT DISTINCT <bound attrs> FROM PartialResult
//	Restricted<V>  — the view body joined with Filter on the bound columns
//	final block    — PartialResult ⋈ Restricted<V> ⋈ (remaining relations)
//
// The paper's contribution (internal/core) subsumes this transformation
// as one join method among many; this package exists as the baseline the
// experiments compare against, and to render the rewriting as SQL text.
package magic

import (
	"fmt"
	"sort"

	"filterjoin/internal/catalog"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
)

// Rewritten describes one completed magic rewriting.
type Rewritten struct {
	PartialResult  string // registered view name
	FilterView     string
	RestrictedView string
	Final          *query.Block // rewritten top-level block
	BoundCols      []int        // view output columns receiving bindings

	// Cat is a copy of the caller's catalog with the three views
	// registered in it; Final is planned against Cat.
	Cat *catalog.Catalog
}

// Rewrite performs the magic-sets transformation of block b, restricting
// the view at relation ordinal viewIdx using bindings produced by the
// SIPS relations (ordinals into b.Rels, excluding viewIdx). All equi
// predicates between the SIPS set and the view become the filter
// attributes. The returned block references views registered in a copy
// of cat; cat itself is left untouched.
func Rewrite(cat *catalog.Catalog, b *query.Block, viewIdx int, sips []int) (*Rewritten, error) {
	e, err := cat.Get(b.Rels[viewIdx].Name)
	if err != nil {
		return nil, err
	}
	if e.Kind != catalog.KindView {
		return nil, fmt.Errorf("magic: relation %q is not a view", b.Rels[viewIdx].Name)
	}
	layout, err := b.Layout(cat)
	if err != nil {
		return nil, err
	}
	inSips := map[int]bool{}
	for _, s := range sips {
		if s == viewIdx {
			return nil, fmt.Errorf("magic: SIPS cannot include the restricted view itself")
		}
		inSips[s] = true
	}
	if len(inSips) == 0 {
		return nil, fmt.Errorf("magic: SIPS is empty")
	}

	sipsSet := query.NewRelSet(sips...)
	viewOffset := layout.Offsets[viewIdx]
	viewWidth := layout.Widths[viewIdx]

	// Find the columns binding SIPS relations to view columns, under the
	// transitive closure of the query's equalities (E.did=D.did and
	// E.did=V.did together let a SIPS of {D} bind V.did).
	parent := make([]int, layout.Schema.Len())
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
	for _, p := range b.Preds {
		c, ok := p.(expr.Cmp)
		if !ok || c.Op != expr.EQ {
			continue
		}
		lc, lok := c.L.(expr.Col)
		rc, rok := c.R.(expr.Col)
		if lok && rok {
			parent[find(lc.Idx)] = find(rc.Idx)
		}
	}
	var boundOuter, boundView []int // block layout columns
	seenView := map[int]bool{}
	for vcol := layout.Offsets[viewIdx]; vcol < layout.Offsets[viewIdx]+layout.Widths[viewIdx]; vcol++ {
		if seenView[vcol] {
			continue
		}
		for ocol := 0; ocol < layout.Schema.Len(); ocol++ {
			if !sipsSet.Has(layout.RelOfCol(ocol)) || find(ocol) != find(vcol) {
				continue
			}
			boundView = append(boundView, vcol)
			boundOuter = append(boundOuter, ocol)
			seenView[vcol] = true
			break
		}
	}
	if len(boundView) == 0 {
		return nil, fmt.Errorf("magic: no equi predicate (even transitively) binds the SIPS set to the view")
	}

	// Bindings must have provenance into the view body.
	boundLocal := make([]int, len(boundView))
	for i, bc := range boundView {
		boundLocal[i] = bc - viewOffset
	}
	bodyCols, ok, err := ViewBindings(cat, e, boundLocal)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("magic: a bound output column of view %q has no direct provenance (aggregate?)", e.Name)
	}

	cat = cat.Clone()
	prName := freshName(cat, "PartialResult")
	fName := freshName(cat, "Filter")
	rvName := freshName(cat, "Restricted"+e.Name)

	// ---- PartialResult: the SIPS join with its internal predicates ----
	sortedSips := append([]int(nil), sips...)
	sort.Ints(sortedSips)
	pr := &query.Block{}
	// Map: original block column -> PartialResult output position.
	prPos := make([]int, layout.Schema.Len())
	for i := range prPos {
		prPos[i] = -1
	}
	out := 0
	for _, s := range sortedSips {
		pr.Rels = append(pr.Rels, b.Rels[s])
		for j := 0; j < layout.Widths[s]; j++ {
			prPos[layout.Offsets[s]+j] = out
			out++
		}
	}
	// Remap a block expression into PartialResult's own layout.
	prLayoutMap := prPos // same mapping
	for _, p := range b.Preds {
		rels := query.PredRels(p, layout)
		if rels != 0 && rels.SubsetOf(sipsSet) {
			pr.Preds = append(pr.Preds, expr.Remap(p, prLayoutMap))
		}
	}
	// Output: every SIPS column, uniquely named "<binding>_<col>".
	for _, s := range sortedSips {
		for j := 0; j < layout.Widths[s]; j++ {
			col := layout.Schema.Col(layout.Offsets[s] + j)
			pr.Proj = append(pr.Proj, query.Output{
				Expr: expr.NewCol(prPos[layout.Offsets[s]+j], col.QualifiedName()),
				Name: fmt.Sprintf("%s_%s", b.Rels[s].Binding(), col.Name),
			})
		}
	}
	cat.AddView(prName, pr)

	// ---- Filter: SELECT DISTINCT bound attrs FROM PartialResult ----
	fb := &query.Block{
		Rels:     []query.RelRef{{Name: prName}},
		Distinct: true,
	}
	for i, oc := range boundOuter {
		fb.Proj = append(fb.Proj, query.Output{
			Expr: expr.NewCol(prPos[oc], layout.Schema.Col(oc).QualifiedName()),
			Name: fmt.Sprintf("k%d", i),
		})
	}
	cat.AddView(fName, fb)

	// ---- Restricted view: the body joined with Filter ----
	rv, err := RestrictedBlock(cat, e, bodyCols, fName)
	if err != nil {
		return nil, err
	}
	cat.AddView(rvName, rv)

	// ---- Final block: PartialResult ⋈ RestrictedView ⋈ remaining ----
	// HAVING/ORDER BY/LIMIT address the output layout, which the rewrite
	// preserves, so they carry over unchanged.
	final := &query.Block{
		Distinct: b.Distinct,
		Having:   b.Having,
		OrderBy:  append([]query.OrderItem(nil), b.OrderBy...),
		Limit:    b.Limit,
	}
	final.Rels = append(final.Rels,
		query.RelRef{Name: prName, Alias: "P"},
		query.RelRef{Name: rvName, Alias: b.Rels[viewIdx].Binding()},
	)
	// New layout map: original block col -> final block col.
	finalPos := make([]int, layout.Schema.Len())
	for i := range finalPos {
		finalPos[i] = -1
	}
	prWidth := out
	for c, p := range prPos {
		if p >= 0 {
			finalPos[c] = p
		}
	}
	for j := 0; j < viewWidth; j++ {
		finalPos[viewOffset+j] = prWidth + j
	}
	nextOff := prWidth + viewWidth
	for r := range b.Rels {
		if r == viewIdx || sipsSet.Has(r) {
			continue
		}
		final.Rels = append(final.Rels, b.Rels[r])
		for j := 0; j < layout.Widths[r]; j++ {
			finalPos[layout.Offsets[r]+j] = nextOff
			nextOff++
		}
	}
	// Predicates not consumed inside PartialResult carry over.
	for _, p := range b.Preds {
		rels := query.PredRels(p, layout)
		if rels != 0 && rels.SubsetOf(sipsSet) {
			continue
		}
		final.Preds = append(final.Preds, expr.Remap(p, finalPos))
	}
	// Output shape.
	if b.HasAggregation() {
		for _, g := range b.GroupBy {
			final.GroupBy = append(final.GroupBy, finalPos[g])
		}
		for _, a := range b.Aggs {
			final.Aggs = append(final.Aggs, expr.RemapAgg(a, finalPos))
		}
	} else if b.Proj != nil {
		for _, o := range b.Proj {
			final.Proj = append(final.Proj, query.Output{Expr: expr.Remap(o.Expr, finalPos), Name: o.Name})
		}
	} else {
		final.Proj = make([]query.Output, layout.Schema.Len())
		for c := 0; c < layout.Schema.Len(); c++ {
			col := layout.Schema.Col(c)
			final.Proj[c] = query.Output{Expr: expr.NewCol(finalPos[c], col.QualifiedName()), Name: col.Name}
		}
	}

	return &Rewritten{
		PartialResult:  prName,
		FilterView:     fName,
		RestrictedView: rvName,
		Final:          final,
		BoundCols:      boundView,
		Cat:            cat,
	}, nil
}

// freshName returns name, or name with the smallest _N suffix, that no
// relation in cat has, so a rewrite view never shadows one.
func freshName(cat *catalog.Catalog, name string) string {
	out := name
	for i := 1; cat.Has(out); i++ {
		out = fmt.Sprintf("%s_%d", name, i)
	}
	return out
}
