package core_test

import (
	"slices"
	"testing"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/opt"
	"filterjoin/internal/query"
)

// TestNestedViews checks views defined over other views: the optimizer
// recurses through both levels, and the Filter Join can restrict the
// outer view (whose body contains the inner view).
func TestNestedViews(t *testing.T) {
	cat := fig1DB(t, 10000, 200, 0.25, 0.05)

	// Level 1: per-department salary average (grouped view over Emp).
	// Already registered as DepAvgSal by fig1DB.
	// Level 2: a projection view over DepAvgSal that keeps high averages.
	// Layout of the body: DepAvgSal:[0,1].
	cat.AddView("HighAvg", &query.Block{
		Rels: []query.RelRef{{Name: "DepAvgSal"}},
		Preds: []expr.Expr{
			expr.NewCmp(expr.GT, expr.NewCol(1, "DepAvgSal.avgsal"), expr.Float(2000)),
		},
		Proj: []query.Output{
			{Expr: expr.NewCol(0, "DepAvgSal.did"), Name: "did"},
			{Expr: expr.NewCol(1, "DepAvgSal.avgsal"), Name: "avgsal"},
		},
	})

	// Query: Dept σ(budget) ⋈ HighAvg. Layout D:[0,1] H:[2,3].
	q := &query.Block{
		Rels: []query.RelRef{
			{Name: "Dept", Alias: "D"},
			{Name: "HighAvg", Alias: "H"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "D.did"), expr.NewCol(2, "H.did")),
			expr.NewCmp(expr.GT, expr.NewCol(1, "D.budget"), expr.Int(100000)),
		},
	}

	model := cost.DefaultModel()
	oPlain := opt.New(cat, model)
	pPlain, err := oPlain.OptimizeBlock(q)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	plainRows, _ := runPlan(t, planRunner{pPlain.Make})

	oFJ := opt.New(cat, model)
	oFJ.Register(core.NewMethod(core.Options{}))
	pFJ, err := oFJ.OptimizeBlock(q)
	if err != nil {
		t.Fatalf("fj: %v", err)
	}
	fjRows, _ := runPlan(t, planRunner{pFJ.Make})

	if len(plainRows) == 0 {
		t.Fatal("nested view query returned no rows; workload degenerate")
	}
	if !slices.Equal(plainRows, fjRows) {
		t.Fatalf("nested views: results differ (%d vs %d rows)", len(plainRows), len(fjRows))
	}
}

// TestFilterJoinOnAggregateOutputRejected: binding a view output column
// that is an aggregate result has no provenance into the body, so the
// Filter Join must decline that attribute — and the query must still
// run correctly through other methods.
func TestFilterJoinOnAggregateOutputRejected(t *testing.T) {
	cat := fig1DB(t, 4000, 100, 0.25, 0.1)
	// Join Emp's salary against the view's aggregate output: the only
	// equi attribute is V.avgsal, which has provenance -1.
	q := &query.Block{
		Rels: []query.RelRef{
			{Name: "Emp", Alias: "E"},
			{Name: "DepAvgSal", Alias: "V"},
		},
		// Layout: E:[0..3] V:[4,5].
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(2, "E.sal"), expr.NewCol(5, "V.avgsal")),
		},
	}
	model := cost.DefaultModel()
	m := core.NewMethod(core.Options{})
	o := opt.New(cat, model)
	o.Register(m)
	p, err := o.OptimizeBlock(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("FilterJoin") != nil {
		t.Error("filter join must not bind an aggregate output column")
	}
	rows, _ := runPlan(t, planRunner{p.Make})
	plain := opt.New(cat, model)
	pp, err := plain.OptimizeBlock(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runPlan(t, planRunner{pp.Make})
	if !slices.Equal(rows, want) {
		t.Error("results differ")
	}
}
