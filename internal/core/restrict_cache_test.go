package core_test

import (
	"slices"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plancache"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// grpDB is Fig 1's universe with a Dept.grp column that decides how many
// departments a query keeps — 2 (grp 0), 10 (grp 1), 40 (grp 2) or 48
// (grp 3) of 100 — and so which Fig-5 class of the default grid the
// filter set of a Filter Join over DepAvgSal lands in: 0, 1, 2 and 2.
func grpDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := fig1DB(t, 3000, 100, 0.25, 0.05)
	dept := storage.NewTable("Dept", schema.New(
		schema.Column{Table: "Dept", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Dept", Name: "budget", Type: value.KindInt},
		schema.Column{Table: "Dept", Name: "grp", Type: value.KindInt},
	))
	for d := 0; d < 100; d++ {
		grp := 3
		switch {
		case d < 2:
			grp = 0
		case d < 12:
			grp = 1
		case d < 52:
			grp = 2
		}
		dept.MustInsert(value.NewInt(int64(d)), value.NewInt(50000), value.NewInt(int64(grp)))
	}
	cat.AddTable(dept)
	return cat
}

// grpSizes is |F| for each grp value of grpDB.
var grpSizes = map[int64]int{0: 2, 1: 10, 2: 40, 3: 48}

// grpQuery joins the departments of one group, a bind parameter, with
// the magic view. The parameter sits under an arithmetic expression, so
// the planner costs it at the default equality selectivity whatever its
// value: one plan, whose actual |F| the binding moves between classes.
// Layout D:[0,1,2] V:[3,4].
func grpQuery() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{{Name: "Dept", Alias: "D"}, {Name: "DepAvgSal", Alias: "V"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "D.did"), expr.NewCol(3, "V.did")),
			expr.Eq(expr.Arith{Op: expr.Add, L: expr.NewCol(2, "D.grp"), R: expr.Int(0)},
				expr.Param{Idx: 0, V: value.NewInt(1), Has: true}),
		},
	}
}

// paramFeeder emits its rows one per call and binds each row's first
// column as parameter 0 while it is the current one — the correlation a
// nested-loops join needs to re-open its inner over a different
// production set per outer row.
type paramFeeder struct {
	exec.Values
}

func (p *paramFeeder) NextBatch(ctx *exec.Context, dst *exec.Batch, _ int) error {
	if err := p.Values.NextBatch(ctx, dst, 1); err != nil {
		return err
	}
	if len(dst.Rows) == 1 {
		ctx.Params = []value.Value{dst.Rows[0][0]}
	}
	return nil
}

// openLog records, per Open of the operator it wraps, the rows that
// Open produced and the counters charged inside its calls.
type openLog struct {
	exec.Operator
	rows  [][]string
	costs []cost.Counter
}

func (l *openLog) bracket(ctx *exec.Context, call func() error) error {
	before := *ctx.Counter
	err := call()
	d := ctx.Counter.Diff(before)
	l.costs[len(l.costs)-1].Add(d)
	return err
}

func (l *openLog) Open(ctx *exec.Context) error {
	l.rows = append(l.rows, nil)
	l.costs = append(l.costs, cost.Counter{})
	return l.bracket(ctx, func() error { return l.Operator.Open(ctx) })
}

func (l *openLog) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	err := l.bracket(ctx, func() error { return l.Operator.NextBatch(ctx, dst, max) })
	for _, r := range dst.Rows {
		l.rows[len(l.rows)-1] = append(l.rows[len(l.rows)-1], r.FullKey())
	}
	return err
}

func (l *openLog) Close(ctx *exec.Context) {
	l.bracket(ctx, func() error {
		l.Operator.Close(ctx)
		return nil
	})
}

// TestRestrictCacheNLJReopen puts one Filter Join operator on the inner
// side of a nested-loops join whose outer rows re-bind the production
// set's parameter, so every re-Open builds a different F and the node's
// restricted sub-plan cache is hit, missed and hit again inside one
// execution. Oracle per Open: a freshly planned node (empty cache) run
// under the same binding. Rows must be identical, in order, every time;
// counters whenever |F| equals the |F| the class's plan was made for.
func TestRestrictCacheNLJReopen(t *testing.T) {
	cat := grpDB(t)
	grps := []int64{1, 0, 1, 2, 0, 3, 2}
	wantPlans, wantHits := int64(3), int64(4) // classes 1, 0, 2 planned at their first Open

	_, fj, m := filterJoinPlan(t, cat, grpQuery(), core.Options{})
	outerRows := make([]value.Row, len(grps))
	for i, g := range grps {
		outerRows[i] = value.Row{value.NewInt(g)}
	}
	outer := &paramFeeder{Values: *exec.NewValues(
		schema.New(schema.Column{Table: "G", Name: "grp", Type: value.KindInt}), outerRows)}
	inner := &openLog{Operator: fj.Make()}
	ctx := exec.NewContext()
	joined, err := exec.Drain(ctx, exec.NewNestedLoopJoin(outer, inner, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.rows) != len(grps) {
		t.Fatalf("inner opened %d times, want %d", len(inner.rows), len(grps))
	}
	if m.Metrics.RestrictPlans != wantPlans || m.Metrics.RestrictHits != wantHits {
		t.Errorf("restrict plans/hits = %d/%d, want %d/%d",
			m.Metrics.RestrictPlans, m.Metrics.RestrictHits, wantPlans, wantHits)
	}

	plannedFor := map[int]int{} // Fig-5 class -> the |F| its plan was made for
	total := 0
	for i, g := range grps {
		_, fresh, fm := filterJoinPlan(t, cat, grpQuery(), core.Options{})
		fctx := exec.NewContext()
		fctx.Params = []value.Value{value.NewInt(g)}
		want, err := exec.Drain(fctx, fresh.Make())
		if err != nil {
			t.Fatal(err)
		}
		if fm.Metrics.RestrictPlans != 1 || fm.Metrics.RestrictHits != 0 {
			t.Fatalf("oracle node was not freshly planned: %+v", fm.Metrics)
		}
		if len(want) != grpSizes[g] {
			t.Fatalf("open %d (grp %d): oracle returned %d rows, want %d", i, g, len(want), grpSizes[g])
		}
		if len(inner.rows[i]) != len(want) {
			t.Fatalf("open %d (grp %d): %d rows, freshly planned node %d", i, g, len(inner.rows[i]), len(want))
		}
		for j, r := range want {
			if inner.rows[i][j] != r.FullKey() {
				t.Fatalf("open %d (grp %d) row %d: %s, freshly planned node %s", i, g, j, inner.rows[i][j], r.FullKey())
			}
		}
		class := plancache.Classify(float64(grpSizes[g])/100, core.DefaultSamplePoints)
		if _, seen := plannedFor[class]; !seen {
			plannedFor[class] = grpSizes[g]
		}
		if plannedFor[class] == grpSizes[g] && inner.costs[i] != *fctx.Counter {
			t.Errorf("open %d (grp %d, |F|=%d): counters %+v, freshly planned node %+v",
				i, g, grpSizes[g], inner.costs[i], *fctx.Counter)
		}
		total += len(want)
	}
	if len(joined) != total {
		t.Errorf("join emitted %d rows, the opens produced %d", len(joined), total)
	}
}

// runTwice executes one plan twice from the same nodes and checks the
// second run — served from every Filter Join node's restricted sub-plan
// cache — against the first: same rows, same counters, no planning.
func runTwice(t *testing.T, p planRunner, m *core.Method, wantPlans int64) cost.Counter {
	t.Helper()
	rows1, c1 := runPlan(t, p)
	if len(rows1) == 0 {
		t.Fatal("no rows; workload degenerate")
	}
	if m.Metrics.RestrictPlans != wantPlans || m.Metrics.RestrictHits != 0 {
		t.Fatalf("first run: restrict plans/hits = %d/%d, want %d/0",
			m.Metrics.RestrictPlans, m.Metrics.RestrictHits, wantPlans)
	}
	rows2, c2 := runPlan(t, p)
	if m.Metrics.RestrictPlans != wantPlans || m.Metrics.RestrictHits != wantPlans {
		t.Errorf("second run: restrict plans/hits = %d/%d, want %d/%d",
			m.Metrics.RestrictPlans, m.Metrics.RestrictHits, wantPlans, wantPlans)
	}
	if !slices.Equal(rows1, rows2) {
		t.Errorf("cached run changed the rows: %d vs %d", len(rows2), len(rows1))
	}
	if c1 != c2 {
		t.Errorf("cached run changed the counters: %+v vs %+v", c2, c1)
	}
	return c2
}

// TestRestrictCacheRemoteView serves a Filter Join over a remote view
// from the cache: shipping F to the view's site and the restricted view
// back is billed on every Open, cached plan or not.
func TestRestrictCacheRemoteView(t *testing.T) {
	cat, err := datagen.DistCatalog(datagen.DefaultDist())
	if err != nil {
		t.Fatal(err)
	}
	plain, _, _ := optimizeAndRun(t, cat, datagen.DistQuery(), false, core.Options{})
	p, fj, m := filterJoinPlan(t, cat, datagen.DistQuery(), core.Options{})
	if ch := fj.Extra.(*core.Choice); ch.Access != core.AccessMagicView {
		t.Fatalf("Filter Join is not over the view: %s", ch)
	}
	c := runTwice(t, planRunner{p.Make}, m, 1)
	if c.NetMsgs < 2 || c.NetBytes == 0 {
		t.Errorf("cached run shipped nothing: %+v", c)
	}
	if got, _ := runPlan(t, planRunner{p.Make}); !slices.Equal(got, plain) {
		t.Errorf("rows differ from the plan without a Filter Join: %d vs %d", len(got), len(plain))
	}
}

// TestRestrictCacheViewOverView caches a restricted sub-plan that itself
// holds a Filter Join (HighAvg's body joins F with DepAvgSal): the
// nested node's cache fills inside the outer node's first Open, and the
// second run plans nothing at either level.
func TestRestrictCacheViewOverView(t *testing.T) {
	cat := fig1DB(t, 10000, 200, 0.25, 0.05)
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
	// Dept σ(budget) ⋈ HighAvg. Layout D:[0,1] H:[2,3].
	q := &query.Block{
		Rels: []query.RelRef{{Name: "Dept", Alias: "D"}, {Name: "HighAvg", Alias: "H"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "D.did"), expr.NewCol(2, "H.did")),
			expr.NewCmp(expr.GT, expr.NewCol(1, "D.budget"), expr.Int(100000)),
		},
	}
	plain, _, _ := optimizeAndRun(t, cat, q, false, core.Options{})
	p, _, m := filterJoinPlan(t, cat, q, core.Options{})
	runTwice(t, planRunner{p.Make}, m, 2)
	if got, _ := runPlan(t, planRunner{p.Make}); !slices.Equal(got, plain) {
		t.Errorf("rows differ from the plan without a Filter Join: %d vs %d", len(got), len(plain))
	}
}
