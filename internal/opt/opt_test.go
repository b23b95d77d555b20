package opt

import (
	"math"
	"slices"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

func buildCat(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()

	a := storage.NewTable("A", schema.New(
		schema.Column{Table: "A", Name: "k", Type: value.KindInt},
		schema.Column{Table: "A", Name: "v", Type: value.KindInt},
	))
	for i := 0; i < 2000; i++ {
		a.MustInsert(value.NewInt(int64(i%100)), value.NewInt(int64(i)))
	}
	if _, err := a.CreateIndex("a_k", []int{0}); err != nil {
		t.Fatal(err)
	}
	cat.AddTable(a)

	b := storage.NewTable("B", schema.New(
		schema.Column{Table: "B", Name: "k", Type: value.KindInt},
		schema.Column{Table: "B", Name: "w", Type: value.KindInt},
	))
	for i := 0; i < 100; i++ {
		b.MustInsert(value.NewInt(int64(i)), value.NewInt(int64(i*10)))
	}
	cat.AddTable(b)

	cat.AddView("VA", &query.Block{
		Rels:    []query.RelRef{{Name: "A"}},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}},
	})
	return cat
}

// joinAB is A ⋈ B on k with a local predicate on B. Layout A:[0,1] B:[2,3].
func joinAB() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{{Name: "A"}, {Name: "B"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "A.k"), expr.NewCol(2, "B.k")),
			expr.NewCmp(expr.LT, expr.NewCol(2, "B.k"), expr.Int(10)),
		},
	}
}

func runNode(t testing.TB, n *plan.Node) ([]value.Row, cost.Counter) {
	t.Helper()
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, n.Make())
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return rows, *ctx.Counter
}

func TestSingleTableScanEstimateExact(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	p, err := o.OptimizeBlock(&query.Block{Rels: []query.RelRef{{Name: "A"}}})
	if err != nil {
		t.Fatal(err)
	}
	rows, c := runNode(t, p)
	if len(rows) != 2000 {
		t.Fatalf("rows = %d", len(rows))
	}
	if p.Est.PageReads != float64(c.PageReads) {
		t.Errorf("page estimate %g vs measured %d (must be exact for a scan)", p.Est.PageReads, c.PageReads)
	}
	if math.Abs(p.Est.CPUTuples-float64(c.CPUTuples)) > 1 {
		t.Errorf("cpu estimate %g vs measured %d", p.Est.CPUTuples, c.CPUTuples)
	}
}

func TestLocalPredicatePushdown(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{
		Rels:  []query.RelRef{{Name: "A"}},
		Preds: []expr.Expr{expr.NewCmp(expr.LT, expr.NewCol(0, "A.k"), expr.Int(10))},
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := runNode(t, p)
	if len(rows) != 200 {
		t.Errorf("rows = %d, want 200", len(rows))
	}
	// Cardinality estimate should be in the right ballpark.
	if p.Rows < 100 || p.Rows > 400 {
		t.Errorf("row estimate = %g", p.Rows)
	}
}

func TestJoinCorrectAcrossMethodChoices(t *testing.T) {
	cat := buildCat(t)
	for _, disable := range [][]string{
		nil,
		{"hash"},
		{"hash", "merge"},
		{"hash", "merge", "indexnl"},
		{"indexnl", "nlj"},
	} {
		o := New(cat, cost.DefaultModel())
		for _, d := range disable {
			o.Disabled[d] = true
		}
		p, err := o.OptimizeBlock(joinAB())
		if err != nil {
			t.Fatalf("disable %v: %v", disable, err)
		}
		rows, _ := runNode(t, p)
		if len(rows) != 200 { // 10 B-rows × 20 A-rows each
			t.Fatalf("disable %v: rows = %d", disable, len(rows))
		}
		if err := sqlref.Check(cat, joinAB(), rows); err != nil {
			t.Errorf("disable %v: %v", disable, err)
		}
	}
}

func TestFreeDPNeverWorseThanForcedOrders(t *testing.T) {
	cat := buildCat(t)
	model := cost.DefaultModel()
	o := New(cat, model)
	free, err := o.OptimizeBlock(joinAB())
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{{0, 1}, {1, 0}} {
		forced, err := o.OptimizeBlockWithOrder(joinAB(), perm)
		if err != nil {
			t.Fatal(err)
		}
		if free.Total(model) > forced.Total(model)+1e-6 {
			t.Errorf("free plan (%.2f) worse than forced order %v (%.2f)",
				free.Total(model), perm, forced.Total(model))
		}
	}
}

func TestCrossProductWhenNoPredicate(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{
		Rels: []query.RelRef{{Name: "B"}, {Name: "B", Alias: "B2"}},
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := runNode(t, p)
	if len(rows) != 100*100 {
		t.Errorf("cross product rows = %d", len(rows))
	}
}

func TestViewLeafCached(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{Rels: []query.RelRef{{Name: "VA"}}}
	if _, err := o.OptimizeBlock(b); err != nil {
		t.Fatal(err)
	}
	n1 := o.Metrics.NestedOptimizations
	if _, err := o.OptimizeBlock(b); err != nil {
		t.Fatal(err)
	}
	if o.Metrics.NestedOptimizations != n1 {
		t.Error("view leaf must be cached across optimizations")
	}
	o.InvalidateCaches()
	if _, err := o.OptimizeBlock(b); err != nil {
		t.Fatal(err)
	}
	if o.Metrics.NestedOptimizations == n1 {
		t.Error("InvalidateCaches must force re-optimization")
	}
}

func TestViewQueryCorrect(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	// B ⋈ VA on k: every B row matches one group. Layout B:[0,1] VA:[2,3].
	b := &query.Block{
		Rels: []query.RelRef{{Name: "B"}, {Name: "VA", Alias: "V"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "B.k"), expr.NewCol(2, "V.k")),
		},
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := runNode(t, p)
	if len(rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(rows))
	}
	for _, r := range rows {
		if r[3].Int() != 20 {
			t.Fatalf("every group should count 20: %v", r)
		}
	}
}

func TestGroupByFinishing(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{
		Rels:    []query.RelRef{{Name: "A"}},
		GroupBy: []int{0},
		Aggs: []expr.AggSpec{
			{Kind: expr.AggCount, Name: "n"},
			{Kind: expr.AggMax, Arg: expr.NewCol(1, "A.v"), Name: "mx"},
		},
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := runNode(t, p)
	if len(rows) != 100 {
		t.Fatalf("groups = %d", len(rows))
	}
	if rows[0][1].Int() != 20 {
		t.Errorf("count per group = %v", rows[0][1])
	}
	if p.Rows != 100 {
		t.Errorf("group-count estimate = %g, want exactly 100 (single-column distinct)", p.Rows)
	}
}

func TestDistinctFinishing(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{
		Rels:     []query.RelRef{{Name: "A"}},
		Proj:     []query.Output{{Expr: expr.NewCol(0, "A.k"), Name: "k"}},
		Distinct: true,
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := runNode(t, p)
	if len(rows) != 100 {
		t.Errorf("distinct rows = %d", len(rows))
	}
}

func TestProjectionReordersToBlockLayout(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	p, err := o.OptimizeBlock(joinAB())
	if err != nil {
		t.Fatal(err)
	}
	// Whatever join order won, the output schema must follow block order:
	// A.k, A.v, B.k, B.w.
	if p.OutSchema.Col(0).QualifiedName() != "A.k" || p.OutSchema.Col(3).QualifiedName() != "B.w" {
		t.Errorf("output schema = %s", p.OutSchema)
	}
	rows, _ := runNode(t, p)
	for _, r := range rows[:3] {
		if !value.Equal(r[0], r[2]) {
			t.Errorf("join columns must match in block order: %v", r)
		}
	}
}

func TestErrorCases(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	if _, err := o.OptimizeBlock(&query.Block{}); err == nil {
		t.Error("empty block must error")
	}
	o.MaxRelations = 1
	if _, err := o.OptimizeBlock(joinAB()); err == nil {
		t.Error("MaxRelations must be enforced")
	}
	// A forced order must be a permutation of the block's relations:
	// anything else is an error, never a panic or a self-join.
	for _, order := range [][]int{{0}, {2, 0}, {-1, 1}, {0, 0}, nil} {
		if _, err := New(cat, cost.DefaultModel()).OptimizeBlockWithOrder(joinAB(), order); err == nil {
			t.Errorf("order %v must error", order)
		}
	}
	if _, err := o.OptimizeBlock(&query.Block{Rels: []query.RelRef{{Name: "Missing"}}}); err == nil {
		t.Error("unknown relation must error")
	}
}

func TestBlockValidation(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	// Out-of-range predicate column.
	bad := &query.Block{
		Rels:  []query.RelRef{{Name: "B"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "B.k"), expr.NewCol(9, "??"))},
	}
	if _, err := o.OptimizeBlock(bad); err == nil {
		t.Error("out-of-range predicate column must be rejected at plan time")
	}
	// Out-of-range GROUP BY.
	bad2 := &query.Block{
		Rels:    []query.RelRef{{Name: "B"}},
		GroupBy: []int{5},
		Aggs:    []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}},
	}
	if _, err := o.OptimizeBlock(bad2); err == nil {
		t.Error("out-of-range GROUP BY must be rejected")
	}
	// Out-of-range projection.
	bad3 := &query.Block{
		Rels: []query.RelRef{{Name: "B"}},
		Proj: []query.Output{{Expr: expr.NewCol(7, "??"), Name: "x"}},
	}
	if _, err := o.OptimizeBlock(bad3); err == nil {
		t.Error("out-of-range projection must be rejected")
	}
	// Out-of-range aggregate argument.
	bad4 := &query.Block{
		Rels:    []query.RelRef{{Name: "B"}},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.NewCol(6, "??"), Name: "s"}},
	}
	if _, err := o.OptimizeBlock(bad4); err == nil {
		t.Error("out-of-range aggregate argument must be rejected")
	}
}

// TestStatsOverride: a relation handed to the optimization by value
// carries its own statistics — the planted row count reaches the plan —
// and is resolved without the catalog ever holding it.
func TestStatsOverride(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	fake := 123456.0
	f := catalog.TableEntry(
		storage.NewTable("F", schema.New(schema.Column{Table: "F", Name: "k", Type: value.KindInt})),
		&stats.RelStats{Rows: fake, Cols: []stats.ColStats{{Distinct: fake}}})
	b := &query.Block{Rels: []query.RelRef{{Name: "F"}}}
	p, err := o.OptimizeBlockGiven(b, f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != fake {
		t.Errorf("planted statistics ignored: rows = %g", p.Rows)
	}
	if cat.Has("F") {
		t.Error("the by-value relation was registered in the catalog")
	}
	if _, err := o.OptimizeBlock(b); err == nil {
		t.Error("the by-value relation outlived its optimization")
	}
}

func TestMetricsPopulated(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	if _, err := o.OptimizeBlock(joinAB()); err != nil {
		t.Fatal(err)
	}
	if o.Metrics.PlansConsidered == 0 || o.Metrics.SubsetsExplored == 0 {
		t.Errorf("metrics not populated: %+v", o.Metrics)
	}
}

func TestEquiClosureEnablesOrder(t *testing.T) {
	// Three relations where B and VA only connect through A's equalities.
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{
		Rels: []query.RelRef{{Name: "A"}, {Name: "B"}, {Name: "VA", Alias: "V"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "A.k"), expr.NewCol(2, "B.k")),
			expr.Eq(expr.NewCol(0, "A.k"), expr.NewCol(4, "V.k")),
		},
	}
	// Force the order B, V, A — only possible with the derived B.k=V.k.
	p, err := o.OptimizeBlockWithOrder(b, []int{1, 2, 0})
	if err != nil {
		t.Fatalf("closure-dependent order failed: %v", err)
	}
	rows, _ := runNode(t, p)
	free, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	rowsFree, _ := runNode(t, free)
	if !slices.Equal(sqlref.Canon(rows), sqlref.Canon(rowsFree)) {
		t.Error("derived-equality order changed results")
	}
}
