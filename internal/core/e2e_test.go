package core_test

import (
	"slices"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// fig1DB builds the paper's Fig 1 universe: Emp, Dept, and the
// DepAvgSal view, with nEmp employees spread over nDept departments.
// youngFrac of employees are young (<30) and bigFrac of departments have
// budget > 100000; both are deterministic in the row id.
func fig1DB(t testing.TB, nEmp, nDept int, youngFrac, bigFrac float64) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()

	empSchema := schema.New(
		schema.Column{Table: "Emp", Name: "eid", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "sal", Type: value.KindFloat},
		schema.Column{Table: "Emp", Name: "age", Type: value.KindInt},
	)
	emp := storage.NewTable("Emp", empSchema)
	for i := 0; i < nEmp; i++ {
		age := int64(40)
		if float64(i%100) < youngFrac*100 {
			age = 25
		}
		// Clustered by did: employees of one department are contiguous.
		emp.MustInsert(
			value.NewInt(int64(i)),
			value.NewInt(int64(i*nDept/nEmp)),
			value.NewFloat(float64(1000+(i*37)%5000)),
			value.NewInt(age),
		)
	}
	if _, err := emp.CreateIndex("emp_did", []int{1}); err != nil {
		t.Fatal(err)
	}
	cat.AddTable(emp)

	deptSchema := schema.New(
		schema.Column{Table: "Dept", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Dept", Name: "budget", Type: value.KindInt},
	)
	dept := storage.NewTable("Dept", deptSchema)
	for d := 0; d < nDept; d++ {
		budget := int64(50000)
		if float64(d%100) < bigFrac*100 {
			budget = 200000
		}
		dept.MustInsert(value.NewInt(int64(d)), value.NewInt(budget))
	}
	if _, err := dept.CreateIndex("dept_did", []int{0}); err != nil {
		t.Fatal(err)
	}
	cat.AddTable(dept)

	// CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) avgsal FROM Emp GROUP BY did
	cat.AddView("DepAvgSal", &query.Block{
		Rels:    []query.RelRef{{Name: "Emp"}},
		GroupBy: []int{1},
		Aggs:    []expr.AggSpec{{Kind: expr.AggAvg, Arg: expr.NewCol(2, "Emp.sal"), Name: "avgsal"}},
	})
	return cat
}

// fig1Query is the paper's motivating query:
//
//	SELECT E.did, E.sal, V.avgsal
//	FROM Emp E, Dept D, DepAvgSal V
//	WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
//	  AND E.age < 30 AND D.budget > 100000
//
// Block layout: E:[0..3] D:[4,5] V:[6,7].
func fig1Query() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{
			{Name: "Emp", Alias: "E"},
			{Name: "Dept", Alias: "D"},
			{Name: "DepAvgSal", Alias: "V"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(1, "E.did"), expr.NewCol(4, "D.did")),
			expr.Eq(expr.NewCol(1, "E.did"), expr.NewCol(6, "V.did")),
			expr.NewCmp(expr.GT, expr.NewCol(2, "E.sal"), expr.NewCol(7, "V.avgsal")),
			expr.NewCmp(expr.LT, expr.NewCol(3, "E.age"), expr.Int(30)),
			expr.NewCmp(expr.GT, expr.NewCol(5, "D.budget"), expr.Int(100000)),
		},
		Proj: []query.Output{
			{Expr: expr.NewCol(1, "E.did"), Name: "did"},
			{Expr: expr.NewCol(2, "E.sal"), Name: "sal"},
			{Expr: expr.NewCol(7, "V.avgsal"), Name: "avgsal"},
		},
	}
}

// runRows drains a fresh tree of the plan and returns its rows and bill.
func runRows(t testing.TB, n interface {
	Make() exec.Operator
}) ([]value.Row, cost.Counter) {
	t.Helper()
	ctx := exec.NewContext()
	ctx.Scratch = runStore
	rows, err := exec.Drain(ctx, n.Make())
	if err != nil {
		t.Fatalf("executing plan: %v", err)
	}
	return rows, *ctx.Counter
}

// runStore is the scratch store every runRows execution shares, as an
// engine's executions share its own: each run reuses (poisoned) buffers
// earlier runs gave back.
var runStore = sweepStore()

// runPlan is runRows with the rows as sqlref.Canon's sorted multiset.
func runPlan(t testing.TB, n interface {
	Make() exec.Operator
}) ([]string, cost.Counter) {
	t.Helper()
	rows, c := runRows(t, n)
	return sqlref.Canon(rows), c
}

type planRunner struct{ n func() exec.Operator }

func (p planRunner) Make() exec.Operator { return p.n() }

func TestFig1EndToEnd(t *testing.T) {
	cat := fig1DB(t, 2000, 100, 0.3, 0.2)
	model := cost.DefaultModel()
	for _, fj := range []bool{false, true} {
		o := opt.New(cat, model)
		if fj {
			o.Register(core.NewMethod(core.Options{}))
		}
		p, err := o.OptimizeBlock(fig1Query())
		if err != nil {
			t.Fatalf("optimize (filter join %v): %v", fj, err)
		}
		rows, _ := runRows(t, planRunner{p.Make})
		if len(rows) == 0 {
			t.Fatal("Fig 1 returned no rows; workload parameters are wrong")
		}
		if err := sqlref.Check(cat, fig1Query(), rows); err != nil {
			t.Fatalf("filter join %v: %v", fj, err)
		}
	}
}

// TestFilterJoinChosenWhenSelective checks the headline behaviour: with
// few qualifying departments the optimizer should pick a Filter Join for
// the view, and its measured cost should beat the plain plan's.
func TestFilterJoinChosenWhenSelective(t *testing.T) {
	cat := fig1DB(t, 20000, 400, 0.2, 0.03)
	model := cost.DefaultModel()

	oPlain := opt.New(cat, model)
	oPlain.Disabled["filterjoin"] = true
	pPlain, err := oPlain.OptimizeBlock(fig1Query())
	if err != nil {
		t.Fatal(err)
	}

	oFJ := opt.New(cat, model)
	oFJ.Register(core.NewMethod(core.Options{}))
	pFJ, err := oFJ.OptimizeBlock(fig1Query())
	if err != nil {
		t.Fatal(err)
	}
	if pFJ.Find("FilterJoin") == nil {
		t.Fatalf("expected a FilterJoin in the plan; got:\n%s", plan.Format(pFJ, model))
	}

	refPlain, cPlain := runPlan(t, planRunner{pPlain.Make})
	refFJ, cFJ := runPlan(t, planRunner{pFJ.Make})
	if !slices.Equal(refPlain, refFJ) {
		t.Fatalf("plans disagree: %d vs %d rows", len(refPlain), len(refFJ))
	}
	if model.Total(cFJ) >= model.Total(cPlain) {
		t.Fatalf("filter join should be cheaper on selective workload: fj=%.1f plain=%.1f",
			model.Total(cFJ), model.Total(cPlain))
	}
}
