package experiments

import (
	"fmt"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/magic"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// empDeptBlock is Dept σ(budget) ⋈ Emp — the stored-relation workload.
// Layout: D:[0,1] E:[2..5].
func empDeptBlock() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{
			{Name: "Dept", Alias: "D"},
			{Name: "Emp", Alias: "E"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "D.did"), expr.NewCol(3, "E.did")),
			expr.NewCmp(expr.GT, expr.NewCol(1, "D.budget"), expr.Int(100000)),
		},
		Proj: []query.Output{
			{Expr: expr.NewCol(2, "E.eid"), Name: "eid"},
			{Expr: expr.NewCol(4, "E.sal"), Name: "sal"},
		},
	}
}

// empDeptViewOuterBlock is Emp ⋈ Dept (the Fig 1 outer) used for the
// correlated-view measurement. Layout: E:[0..3] D:[4,5].
func empDeptViewOuterBlock() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{
			{Name: "Emp", Alias: "E"},
			{Name: "Dept", Alias: "D"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(1, "E.did"), expr.NewCol(4, "D.did")),
			expr.NewCmp(expr.LT, expr.NewCol(3, "E.age"), expr.Int(30)),
			expr.NewCmp(expr.GT, expr.NewCol(5, "D.budget"), expr.Int(100000)),
		},
	}
}

// outerViewBlock exposes the Fig 1 outer (young emps in big depts) as a
// projected view so the E5 matrix can force a strategy at the view join
// only. Output: (did, sal).
func outerViewBlock() *query.Block {
	b := empDeptViewOuterBlock()
	b.Proj = []query.Output{
		{Expr: expr.NewCol(1, "E.did"), Name: "did"},
		{Expr: expr.NewCol(2, "E.sal"), Name: "sal"},
	}
	return b
}

// viewCellBlock joins the OuterED view with DepAvgSal — the Fig 1 query
// with its outer pre-packaged. Layout: O:[0,1] V:[2,3].
func viewCellBlock() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{
			{Name: "OuterED", Alias: "O"},
			{Name: "DepAvgSal", Alias: "V"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "O.did"), expr.NewCol(2, "V.did")),
			expr.NewCmp(expr.GT, expr.NewCol(1, "O.sal"), expr.NewCol(3, "V.avgsal")),
		},
	}
}

// measureForced optimizes b with a fixed order and a restricted method
// set, executes it, and returns the weighted measured cost.
func measureForced(cat *catalog.Catalog, model cost.Model, b *query.Block, order []int, fj *core.Method, disabled ...string) (float64, error) {
	o := optimizer(cat, model, fj, disabled...)
	p, err := o.OptimizeBlockWithOrder(b, order)
	if err != nil {
		return 0, err
	}
	_, counter, err := measured(p)
	if err != nil {
		return 0, err
	}
	return model.Total(counter), nil
}

// measureCorrelatedView measures true nested iteration over the view
// (Fig 6 "Correlation" cell): for every outer row of E⋈D, the view body
// is re-executed restricted to that row's binding, optionally with a
// result cache per distinct binding.
func measureCorrelatedView(cat *catalog.Catalog, model cost.Model, memo bool) (float64, error) {
	o := optimizer(cat, model, nil)
	outerPlan, err := o.OptimizeBlock(empDeptViewOuterBlock())
	if err != nil {
		return 0, err
	}
	ctx := exec.NewContext()
	outerRows, err := exec.Drain(ctx, outerPlan.Make())
	if err != nil {
		return 0, err
	}
	// The binding parameter table holds exactly one did at a time.
	fs := schema.New(schema.Column{Table: "F_corr", Name: "k0", Type: value.KindInt})
	ft := storage.NewTable("F_corr", fs)
	ft.MustInsert(value.NewInt(0))
	innerPlan, err := o.OptimizeBlockGiven(restrictedViewBlockForEmp("F_corr"), catalog.TableEntry(ft, nil))
	if err != nil {
		return 0, err
	}
	didIdx := 1 // E.did position in the outer block layout (identity projection)
	cache := map[int64]bool{}
	for _, r := range outerRows {
		did := r[didIdx].Int()
		if memo {
			if cache[did] {
				ctx.Counter.CPUTuples++ // cache hit
				continue
			}
			cache[did] = true
		}
		ft.Truncate()
		if err := ft.Insert(value.Row{value.NewInt(did)}); err != nil {
			return 0, err
		}
		if _, err := exec.Count(ctx, innerPlan.Make()); err != nil {
			return 0, err
		}
	}
	return model.Total(*ctx.Counter), nil
}

// E5Taxonomy reproduces Figure 6: the cross-domain matrix of join
// strategies. Every non-empty cell is a measured execution cost of the
// same logical join evaluated with that strategy forced.
func E5Taxonomy() (*Report, error) {
	model := cost.DefaultModel()

	// Smaller workloads: the correlated cells are deliberately expensive.
	figP := datagen.DefaultFig1()
	figP.NEmp, figP.NDept = 8000, 200
	figCat, err := datagen.Fig1Catalog(figP)
	if err != nil {
		return nil, err
	}
	figCat.AddView("OuterED", outerViewBlock())
	distP := datagen.DefaultDist()
	distP.NOrders, distP.NCustomers = 16000, 800
	distCat, err := datagen.DistCatalog(distP)
	if err != nil {
		return nil, err
	}
	udrCat, _, err := datagen.UDRCatalog(datagen.DefaultUDR())
	if err != nil {
		return nil, err
	}

	cell := func(v float64, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return f1(v), nil
	}
	na := "—"

	r := &Report{
		ID:     "E5",
		Title:  "Figure 6: join strategies across domains (measured cost units)",
		Header: []string{"strategy", "stored", "remote", "view", "udr"},
	}

	// ---- repeated probe -----------------------------------------------
	stored, err := cell(measureForced(figCat, model, empDeptBlock(), []int{0, 1}, nil, "hash", "merge", "nlj"))
	if err != nil {
		return nil, fmt.Errorf("stored repeated probe: %w", err)
	}
	remote, err := cell(measureForced(distCat, model, datagen.DistBaseQuery(), []int{0, 1}, nil, "hash", "merge", "nlj"))
	if err != nil {
		return nil, fmt.Errorf("remote repeated probe: %w", err)
	}
	view, err := cell(measureCorrelatedView(figCat, model, false))
	if err != nil {
		return nil, fmt.Errorf("view correlation: %w", err)
	}
	udrC, err := cell(measureForced(udrCat, model, datagen.UDRQuery(), []int{0, 1, 2}, nil, "funcprobememo"))
	if err != nil {
		return nil, fmt.Errorf("udr repeated probe: %w", err)
	}
	r.AddRow("repeated probe", stored, remote, view, udrC)

	// ---- repeated probe with caching ----------------------------------
	viewMemo, err := cell(measureCorrelatedView(figCat, model, true))
	if err != nil {
		return nil, err
	}
	udrMemo, err := cell(measureForced(udrCat, model, datagen.UDRQuery(), []int{0, 1, 2}, nil, "funcprobe"))
	if err != nil {
		return nil, err
	}
	r.AddRow("  w/ caching (memo)", na, na, viewMemo, udrMemo)

	// ---- full computation ----------------------------------------------
	stored, err = cell(measureForced(figCat, model, empDeptBlock(), []int{0, 1}, nil, "indexnl", "merge", "nlj"))
	if err != nil {
		return nil, err
	}
	remote, err = cell(measureForced(distCat, model, datagen.DistBaseQuery(), []int{0, 1}, nil, "fetchmatches", "indexnl", "merge", "nlj"))
	if err != nil {
		return nil, err
	}
	view, err = cell(measureForced(figCat, model, viewCellBlock(), []int{0, 1}, nil))
	if err != nil {
		return nil, err
	}
	r.AddRow("full computation", stored, remote, view, na)

	// ---- filter join ----------------------------------------------------
	stored, err = cell(measureForced(figCat, model, empDeptBlock(), []int{0, 1},
		core.NewMethod(core.Options{IncludeStored: true}), "hash", "merge", "nlj", "indexnl"))
	if err != nil {
		return nil, err
	}
	remote, err = cell(measureForced(distCat, model, datagen.DistBaseQuery(), []int{0, 1},
		core.NewMethod(core.Options{}), "hash", "merge", "nlj", "fetchmatches", "indexnl"))
	if err != nil {
		return nil, err
	}
	view, err = cell(measureForced(figCat, model, viewCellBlock(), []int{0, 1},
		core.NewMethod(core.Options{}), "hash", "merge", "nlj"))
	if err != nil {
		return nil, err
	}
	udrC, err = cell(measureForced(udrCat, model, datagen.UDRQuery(), []int{0, 1, 2},
		core.NewMethod(core.Options{}), "funcprobe", "funcprobememo"))
	if err != nil {
		return nil, err
	}
	r.AddRow("filter join", stored, remote, view, udrC)

	// ---- lossy filter ----------------------------------------------------
	stored, err = cell(measureForced(figCat, model, empDeptBlock(), []int{0, 1},
		core.NewMethod(core.Options{IncludeStored: true, Bloom: true, DisableExact: true}),
		"hash", "merge", "nlj", "indexnl"))
	if err != nil {
		return nil, err
	}
	remote, err = cell(measureForced(distCat, model, datagen.DistBaseQuery(), []int{0, 1},
		core.NewMethod(core.Options{Bloom: true, DisableExact: true}),
		"hash", "merge", "nlj", "fetchmatches", "indexnl"))
	if err != nil {
		return nil, err
	}
	r.AddRow("lossy filter (Bloom)", stored, remote, na, na)

	r.AddNote("every cell is the measured weighted cost of the same logical query under a forced strategy; — marks cells the taxonomy leaves empty")
	return r, nil
}

// E6Crossover reproduces the paper's headline claim (§1-§2): magic
// rewriting helps by a large factor when few bindings qualify and hurts
// when most do; the cost-based Filter Join tracks the better of the two
// everywhere because it is a per-join, per-query decision.
func E6Crossover() (*Report, error) {
	model := cost.DefaultModel()
	r := &Report{
		ID:    "E6",
		Title: "Crossover: original vs always-magic vs cost-based Filter Join",
		Header: []string{"big-dept frac", "original", "always magic", "cost-based", "FJ chosen?",
			"magic/original"},
	}
	var crossover float64 = -1
	for _, frac := range []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0} {
		p := datagen.DefaultFig1()
		p.BigFrac = frac
		cat, err := datagen.Fig1Catalog(p)
		if err != nil {
			return nil, err
		}

		// (a) Original query, no Filter Join available.
		oPlain := optimizer(cat, model, nil)
		_, _, cPlain, err := optimizeRun(oPlain, datagen.Fig1Query())
		if err != nil {
			return nil, err
		}
		costPlain := model.Total(cPlain)

		// (b) Textbook magic rewriting with the heuristic SIPS {E,D},
		// optimized by the same plain optimizer (the Starburst approach
		// without its final cost comparison).
		rw, err := magic.Rewrite(cat, datagen.Fig1Query(), 2, []int{0, 1})
		if err != nil {
			return nil, err
		}
		oMagic := optimizer(rw.Cat, model, nil)
		_, _, cMagic, err := optimizeRun(oMagic, rw.Final)
		if err != nil {
			return nil, err
		}
		costMagic := model.Total(cMagic)

		// (c) Cost-based: the Filter Join competes inside the optimizer.
		fj := core.NewMethod(core.Options{})
		oFJ := optimizer(cat, model, fj)
		plFJ, _, cFJ, err := optimizeRun(oFJ, datagen.Fig1Query())
		if err != nil {
			return nil, err
		}
		costFJ := model.Total(cFJ)

		if crossover < 0 && costMagic > costPlain {
			crossover = frac
		}
		r.AddRow(fmt.Sprintf("%.1f%%", frac*100), f1(costPlain), f1(costMagic), f1(costFJ),
			yesNo(plFJ.Find("FilterJoin") != nil), f2(costMagic/costPlain))
	}
	if crossover >= 0 {
		r.AddNote("always-magic becomes worse than the original at ~%.1f%% qualifying departments; the cost-based plan stays at (or below) the better of the two on both sides", crossover*100)
	} else {
		r.AddNote("always-magic never became worse than the original in this sweep")
	}
	return r, nil
}
