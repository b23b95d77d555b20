package filterjoin_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
)

var update = flag.Bool("update", false, "rewrite testdata golden files with the current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run `go test -run Golden -update .` to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// quickstartDB loads the quickstart example's deterministic schema and
// data (6000 employees over 150 departments, formula-generated) on the
// default config, whose batch size EXPLAIN prints (batch=1024).
func quickstartDB(t *testing.T) *filterjoin.DB {
	t.Helper()
	return quickstartDBWith(t, filterjoin.Config{})
}

func quickstartDBWith(t *testing.T, cfg filterjoin.Config) *filterjoin.DB {
	t.Helper()
	db := filterjoin.Open(cfg)
	if err := db.ExecScript(`
		CREATE TABLE Emp (eid int, did int, sal float, age int);
		CREATE TABLE Dept (did int, budget int);
		CREATE INDEX emp_did ON Emp (did);
		CREATE VIEW DepAvgSal AS
		  (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did);
	`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO Emp VALUES ")
	const nEmp, nDept = 6000, 150
	for i := 0; i < nEmp; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		age := 31 + (i*13)%30
		if i%4 == 0 {
			age = 21 + i%9
		}
		fmt.Fprintf(&b, "(%d,%d,%d.0,%d)", i, i*nDept/nEmp, 1000+(i*37)%5000, age)
	}
	b.WriteString("; INSERT INTO Dept VALUES ")
	for d := 0; d < nDept; d++ {
		if d > 0 {
			b.WriteString(",")
		}
		budget := 20000 + (d*211)%70000
		if d%20 == 0 {
			budget = 150000
		}
		fmt.Fprintf(&b, "(%d,%d)", d, budget)
	}
	b.WriteString(";")
	if err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

const quickstartQuery = `
	SELECT E.did, E.sal, V.avgsal
	FROM Emp E, Dept D, DepAvgSal V
	WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
	  AND E.age < 30 AND D.budget > 100000`

func TestExplainGoldenQuickstart(t *testing.T) {
	db := quickstartDB(t)
	got, err := db.Explain(quickstartQuery)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quickstart_explain", got)
}

func TestExplainAnalyzeGoldenQuickstart(t *testing.T) {
	db := quickstartDB(t)
	got, err := db.ExplainAnalyze(quickstartQuery)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quickstart_explain_analyze", got)
}

// The SQL-level EXPLAIN/EXPLAIN ANALYZE statements render through the
// same formatter; pin the statement-level shape too. The order is fixed:
// the first EXPLAIN misses the plan cache and populates it, so the
// EXPLAIN ANALYZE that follows reports cache=hit — pinning the banner's
// both states in one test.
func TestExplainStatementGoldenQuickstart(t *testing.T) {
	db := quickstartDB(t)
	for _, tc := range []struct{ stmt, name string }{
		{"EXPLAIN ", "quickstart_stmt_explain"},
		{"EXPLAIN ANALYZE ", "quickstart_stmt_explain_analyze"},
	} {
		stmt, name := tc.stmt, tc.name
		res, err := db.Query(stmt + quickstartQuery)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range res.Rows {
			b.WriteString(r[0].Str())
			b.WriteString("\n")
		}
		checkGolden(t, name, b.String())
	}
}

// A fan-out self-join ordered by the join key: the order-aware memo
// keeps the merge join's output order, so the final Sort is elided and
// the plan carries an order=[...] annotation instead of a Sort node.
const orderByElisionQuery = `
	SELECT E.did, E.sal, F.sal
	FROM Emp E, Emp F
	WHERE E.did = F.did AND E.age < 25
	ORDER BY E.did`

func TestExplainGoldenOrderByElision(t *testing.T) {
	db := quickstartDB(t)
	got, err := db.Explain(orderByElisionQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "Sort") {
		t.Errorf("final sort should be elided:\n%s", got)
	}
	if !strings.Contains(got, "order=[") {
		t.Errorf("plan should declare its retained order:\n%s", got)
	}
	checkGolden(t, "orderby_elision_explain", got)
}

func TestExplainAnalyzeGoldenOrderByElision(t *testing.T) {
	db := quickstartDB(t)
	got, err := db.ExplainAnalyze(orderByElisionQuery)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "orderby_elision_explain_analyze", got)
}

// The full observability stack composed: a batched plan whose primary
// strategy dies mid-query and degrades to the retained fault-free
// fallback. The golden pins the EXPLAIN ANALYZE rendering: batch=1024 on
// the executed root, the degradation banner naming the site error, and
// the fault surcharge (retries, fallback) in the measured counters — all
// deterministic because the chaos schedule depends only on the seed and
// the send sequence, which batching preserves.
func TestExplainAnalyzeGoldenBatchDegraded(t *testing.T) {
	db := degradeDB(t)
	got, err := db.ExplainAnalyze(distJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"batch=1024", "degraded=plan"} {
		if !strings.Contains(got, want) {
			t.Errorf("EXPLAIN ANALYZE misses %q:\n%s", want, got)
		}
	}
	checkGolden(t, "batch_degraded_explain_analyze", got)
}

// The distributed example's remote-view query (datagen seed 7), under a
// network-heavy cost model that makes the Filter Join win.
func TestExplainAnalyzeGoldenDistributed(t *testing.T) {
	cat, err := datagen.DistCatalog(datagen.DefaultDist())
	if err != nil {
		t.Fatal(err)
	}
	model := cost.DefaultModel()
	model.NetByte *= 25
	model.NetMsg *= 25
	o := opt.New(cat, model)
	o.Register(core.NewMethod(core.Options{Bloom: true}))
	p, err := o.OptimizeBlock(datagen.DistQuery())
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext()
	if _, err := exec.Drain(ctx, p.Make()); err != nil {
		t.Fatal(err)
	}
	got := plan.FormatAnalyze(p, model, ctx.OperatorStats(), *ctx.Counter, plan.AnalyzeOptions{})
	checkGolden(t, "distributed_explain_analyze", got)
}
