package experiments

import (
	"fmt"
	"math"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// E1CostComponents reproduces Table 1: the seven-component cost
// breakdown of the best Filter Join candidate for the Fig 1 query, at
// three workload selectivities, next to the estimated and measured cost
// of the plan the optimizer actually picked.
func E1CostComponents() (*Report, error) {
	model := cost.DefaultModel()
	fracs := []float64{0.02, 0.10, 0.50}
	type colData struct {
		comp     core.Components
		have     bool
		chosen   bool
		fCard    float64
		estTotal float64
		planEst  float64
		measured float64
	}
	cols := make([]colData, len(fracs))

	for i, frac := range fracs {
		p := datagen.DefaultFig1()
		p.BigFrac = frac
		cat, err := datagen.Fig1Catalog(p)
		if err != nil {
			return nil, err
		}
		fj := core.NewMethod(core.Options{})
		var best *core.Choice
		var bestTotal float64
		fj.Trace = func(ch *core.Choice, total float64) {
			if ch.InnerName != "DepAvgSal" {
				return
			}
			if best == nil || total < bestTotal {
				best, bestTotal = ch, total
			}
		}
		o := optimizer(cat, model, fj)
		pl, _, counter, err := optimizeRun(o, datagen.Fig1Query())
		if err != nil {
			return nil, err
		}
		cd := &cols[i]
		if best != nil {
			cd.comp = best.Components
			cd.have = true
			cd.fCard = best.FilterCard
			cd.estTotal = bestTotal
		}
		cd.chosen = pl.Find("FilterJoin") != nil
		cd.planEst = pl.Total(model)
		cd.measured = model.Total(counter)
	}

	r := &Report{ID: "E1", Title: "Table 1 cost components of the best Filter Join candidate (Fig 1 query)"}
	r.Header = []string{"component"}
	for _, f := range fracs {
		r.Header = append(r.Header, fmt.Sprintf("big=%.0f%%", f*100))
	}
	names := core.Components{}.Names()
	for ci, name := range names {
		row := []string{name}
		for _, cd := range cols {
			if !cd.have {
				row = append(row, "-")
				continue
			}
			row = append(row, f2(model.TotalEstimate(cd.comp.Values()[ci])))
		}
		_ = ci
		r.AddRow(row...)
	}
	total := []string{"TOTAL (filter join est.)"}
	fcard := []string{"|F| estimated"}
	chosen := []string{"chosen by optimizer"}
	planEst := []string{"final plan estimate"}
	meas := []string{"final plan measured"}
	for _, cd := range cols {
		total = append(total, f2(cd.estTotal))
		fcard = append(fcard, f0(cd.fCard))
		chosen = append(chosen, yesNo(cd.chosen))
		planEst = append(planEst, f2(cd.planEst))
		meas = append(meas, f2(cd.measured))
	}
	r.AddRow(total...)
	r.AddRow(fcard...)
	r.AddRow(chosen...)
	r.AddRow(planEst...)
	r.AddRow(meas...)
	r.AddNote("components are weighted cost units (1 unit = 1 page I/O); the filter join wins at low fractions and is correctly rejected as the fraction of qualifying departments grows")
	return r, nil
}

// E2JoinOrders reproduces Figure 3: the six left-deep join orders of
// Emp ⋈ Dept ⋈ DepAvgSal. Orders 1-2 correspond to the classical magic
// rewriting (filter from E⋈D), orders 3-4 to the single-relation SIPS
// variants, orders 5-6 to no rewriting at all.
func E2JoinOrders() (*Report, error) {
	model := cost.DefaultModel()
	p := datagen.DefaultFig1()
	cat, err := datagen.Fig1Catalog(p)
	if err != nil {
		return nil, err
	}
	orders := []struct {
		num   int
		name  string
		perm  []int
		paper string
	}{
		{1, "(E⋈D)⋈V", []int{0, 1, 2}, "magic: filter from E⋈D"},
		{2, "(D⋈E)⋈V", []int{1, 0, 2}, "magic: filter from D⋈E"},
		{3, "(D⋈V)⋈E", []int{1, 2, 0}, "magic: filter from D (big depts)"},
		{4, "(E⋈V)⋈D", []int{0, 2, 1}, "magic: filter from E (young-emp depts)"},
		{5, "(V⋈E)⋈D", []int{2, 0, 1}, "no rewriting (view outermost)"},
		{6, "(V⋈D)⋈E", []int{2, 1, 0}, "no rewriting (view outermost)"},
	}
	r := &Report{
		ID:     "E2",
		Title:  "Figure 3: six join orders, Filter Join available at every step",
		Header: []string{"order", "shape", "est cost", "measured", "rows", "filter join?", "paper correspondence"},
	}
	var bestNum int
	bestCost := math.Inf(1)
	for _, ord := range orders {
		fj := core.NewMethod(core.Options{})
		o := optimizer(cat, model, fj)
		pl, err := o.OptimizeBlockWithOrder(datagen.Fig1Query(), ord.perm)
		if err != nil {
			return nil, fmt.Errorf("order %d: %w", ord.num, err)
		}
		rows, counter, err := measured(pl)
		if err != nil {
			return nil, fmt.Errorf("order %d execute: %w", ord.num, err)
		}
		mc := model.Total(counter)
		if mc < bestCost {
			bestCost, bestNum = mc, ord.num
		}
		r.AddRow(d(int64(ord.num)), ord.name, f2(pl.Total(model)), f2(mc),
			d(int64(rows)), yesNo(pl.Find("FilterJoin") != nil), ord.paper)
	}
	r.AddNote("measured-cheapest order: %d; the full DP considers all of these (and method choices) in one pass", bestNum)
	return r, nil
}

// restrictedViewBlockForEmp builds the magic-restricted DepAvgSal body
// against an explicit filter table name (used to measure ground truth).
func restrictedViewBlockForEmp(fName string) *query.Block {
	return &query.Block{
		Rels: []query.RelRef{{Name: "Emp"}, {Name: fName}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(1, "Emp.did"), expr.NewCol(4, fName+".k0")),
		},
		GroupBy: []int{1},
		Aggs:    []expr.AggSpec{{Kind: expr.AggAvg, Arg: expr.NewCol(2, "Emp.sal"), Name: "avgsal"}},
	}
}

// E3CardinalityFit reproduces Figure 4: the straight-line fit of
// restricted-view cardinality against filter selectivity, compared with
// the actually measured cardinality of the restricted view.
func E3CardinalityFit() (*Report, error) {
	model := cost.DefaultModel()
	p := datagen.DefaultFig1()
	cat, err := datagen.Fig1Catalog(p)
	if err != nil {
		return nil, err
	}
	fj := core.NewMethod(core.Options{})
	o := optimizer(cat, model, fj)
	if _, err := o.OptimizeBlock(datagen.Fig1Query()); err != nil {
		return nil, err
	}
	costers := fj.Costers()
	if len(costers) == 0 {
		return nil, fmt.Errorf("E3: no view coster was built")
	}
	vc := costers[0]

	r := &Report{
		ID:     "E3",
		Title:  "Figure 4: cardinality of the restricted view vs filter selectivity",
		Header: []string{"filter sel", "|F|", "fit rows", "measured rows", "rel err"},
	}
	var maxErr float64
	for _, sel := range []float64{0.05, 0.20, 0.40, 0.80, 1.00} {
		k := int(sel * float64(p.NDept))
		if k < 1 {
			k = 1
		}
		fName := fmt.Sprintf("F_e3_%d", k)
		fs := schema.New(schema.Column{Table: fName, Name: "k0", Type: value.KindInt})
		ft := storage.NewTable(fName, fs)
		for i := 0; i < k; i++ {
			ft.MustInsert(value.NewInt(int64(i)))
		}
		pl, err := o.OptimizeBlockGiven(restrictedViewBlockForEmp(fName), catalog.TableEntry(ft, nil))
		if err != nil {
			return nil, err
		}
		got, _, err := measured(pl)
		if err != nil {
			return nil, err
		}
		fit := vc.Rows(float64(k) / vc.Domain)
		relErr := 0.0
		if got > 0 {
			relErr = math.Abs(fit-float64(got)) / float64(got)
		}
		if relErr > maxErr {
			maxErr = relErr
		}
		r.AddRow(f2(sel), d(int64(k)), f1(fit), d(int64(got)), fmt.Sprintf("%.1f%%", relErr*100))
	}
	r.AddNote("fit: rows(sel) = %.1f + %.1f·sel over %d sampled equivalence classes; max relative error %.1f%%",
		vc.CardA, vc.CardB, len(vc.Points), maxErr*100)
	return r, nil
}

// E4EquivClasses reproduces Figure 5: the sampled cost equivalence
// classes, and demonstrates Assumption 1 — after the classes are built
// once, repeated optimizations cost no further nested invocations.
func E4EquivClasses() (*Report, error) {
	model := cost.DefaultModel()
	cat, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		return nil, err
	}
	fj := core.NewMethod(core.Options{})
	o := optimizer(cat, model, fj)

	if _, err := o.OptimizeBlock(datagen.Fig1Query()); err != nil {
		return nil, err
	}
	nestedAfterFirst := o.Metrics.NestedOptimizations
	buildsAfterFirst := fj.Metrics.CosterBuilds

	const repeats = 50
	for i := 0; i < repeats; i++ {
		if _, err := o.OptimizeBlock(datagen.Fig1Query()); err != nil {
			return nil, err
		}
	}
	r := &Report{
		ID:     "E4",
		Title:  "Figure 5: cost equivalence classes of the parametric view coster",
		Header: []string{"class (filter sel)", "est. restricted-view cost", "est. rows"},
	}
	for _, vc := range fj.Costers() {
		for _, pt := range vc.Points {
			r.AddRow(f2(pt.Sel), f2(model.TotalEstimate(pt.Est)), f0(pt.Rows))
		}
		// Interpolated lookups between classes are O(1).
		for _, sel := range []float64{0.1, 0.45} {
			r.AddRow(fmt.Sprintf("%.2f (interpolated)", sel),
				f2(model.TotalEstimate(vc.Cost(sel))), f0(vc.Rows(sel)))
		}
	}
	r.AddNote("first optimization: %d nested invocations, %d coster builds", nestedAfterFirst, buildsAfterFirst)
	r.AddNote("after %d further optimizations: %d nested invocations (unchanged), coster hits %d",
		repeats, o.Metrics.NestedOptimizations, fj.Metrics.CosterHits)
	if o.Metrics.NestedOptimizations != nestedAfterFirst {
		r.AddNote("WARNING: nested invocations grew with repeats; Assumption 1 violated")
	}
	return r, nil
}
