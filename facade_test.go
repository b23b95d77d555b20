package filterjoin_test

import (
	"fmt"
	"strings"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

func TestDDLErrors(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript("CREATE TABLE t (a int)"); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript("CREATE TABLE t (a int)"); err == nil {
		t.Error("duplicate table must error")
	}
	if err := db.ExecScript("CREATE VIEW t AS SELECT a FROM t"); err == nil {
		t.Error("view name collision must error")
	}
	if err := db.ExecScript("CREATE INDEX i ON nope (a)"); err == nil {
		t.Error("index on unknown table must error")
	}
	if err := db.ExecScript("CREATE INDEX i ON t (zzz)"); err == nil {
		t.Error("index on unknown column must error")
	}
	if err := db.ExecScript("INSERT INTO nope VALUES (1)"); err == nil {
		t.Error("insert into unknown table must error")
	}
	if err := db.ExecScript("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestInsertIntoViewRejected(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`
		CREATE TABLE t (a int);
		CREATE VIEW v AS SELECT a FROM t;
	`); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript("INSERT INTO v VALUES (1)"); err == nil {
		t.Error("insert into a view must error")
	}
	if err := db.ExecScript("CREATE INDEX i ON v (a)"); err == nil {
		t.Error("index on a view must error")
	}
}

func TestQueryOnNonSelect(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if _, err := db.Query("CREATE TABLE t (a int)"); err == nil {
		t.Error("Query on DDL must error")
	}
	if _, err := db.Plan("CREATE TABLE u (a int)"); err == nil {
		t.Error("Plan on DDL must error")
	}
}

func TestSimpleRoundTrip(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`
		CREATE TABLE t (a int, b float, s varchar);
		INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y'), (3, 3.5, 'x');
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT s, COUNT(*) AS n, SUM(b) AS total FROM t GROUP BY s")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if len(res.Columns) != 3 {
		t.Errorf("columns = %v", res.Columns)
	}
	// Groups come out sorted by key: 'x' then 'y'.
	if res.Rows[0][1].Int() != 2 || res.Rows[0][2].Float() != 5.0 {
		t.Errorf("group x = %v", res.Rows[0])
	}
}

// TestGroupByEmitsValueOrder: GROUP BY with no ORDER BY emits its groups
// in the value order of their keys — NULL first, numbers numerically —
// since it sorts them by key encoding, which orders as Compare does.
func TestGroupByEmitsValueOrder(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`
		CREATE TABLE T (k float);
		INSERT INTO T VALUES (9), (10), (-1), (-2), (2.5), (100), (NULL);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT k, COUNT(*) FROM T GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range res.Rows {
		keys = append(keys, r[0].String())
	}
	if got, want := strings.Join(keys, " "), "NULL -2 -1 2.5 9 10 100"; got != want {
		t.Errorf("groups in order %s, want %s", got, want)
	}
}

func TestDistinctQuery(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`
		CREATE TABLE t (a int);
		INSERT INTO t VALUES (1), (1), (2), (2), (3);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT DISTINCT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("distinct rows = %d", len(res.Rows))
	}
}

func TestHavingOrderLimitEndToEnd(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`
		CREATE TABLE t (g int, v int);
		INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (2, 6), (2, 7), (3, 100);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`
		SELECT t.g, COUNT(*) AS n, SUM(t.v) AS s FROM t
		GROUP BY t.g HAVING n >= 2 ORDER BY s DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	// Groups with n>=2: g=1 (s=30), g=2 (s=18); top by s is g=1.
	if r[0].Int() != 1 || r[1].Int() != 2 || r[2].Int() != 30 {
		t.Errorf("result = %v", r)
	}

	// ORDER BY without aggregation.
	res, err = db.Query("SELECT t.v FROM t ORDER BY t.v DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 100 || res.Rows[2][0].Int() != 10 {
		t.Errorf("ordered rows = %v", res.Rows)
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	buildFig1SQL(t, db, 2000, 50)
	out, err := db.ExplainAnalyze(fig1SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"estimated cost:", "measured cost:", "rows:"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterTableAndRemote(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	s := schema.New(
		schema.Column{Table: "R", Name: "k", Type: value.KindInt},
		schema.Column{Table: "R", Name: "v", Type: value.KindInt},
	)
	local := storage.NewTable("L", schema.New(
		schema.Column{Table: "L", Name: "k", Type: value.KindInt},
	))
	remote := storage.NewTable("R", s)
	for i := 0; i < 50; i++ {
		remote.MustInsert(value.NewInt(int64(i%10)), value.NewInt(int64(i)))
		if i < 5 {
			local.MustInsert(value.NewInt(int64(i)))
		}
	}
	db.RegisterTable(local)
	db.RegisterRemoteTable(remote, 1)
	res, err := db.Query("SELECT L.k, R.v FROM L, R WHERE L.k = R.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("rows = %d, want 25", len(res.Rows))
	}
	if res.Cost.NetBytes == 0 {
		t.Error("remote join must ship bytes")
	}
}

func TestRegisterRemoteView(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	s := schema.New(
		schema.Column{Table: "R", Name: "k", Type: value.KindInt},
		schema.Column{Table: "R", Name: "v", Type: value.KindInt},
	)
	remote := storage.NewTable("R", s)
	for i := 0; i < 100; i++ {
		remote.MustInsert(value.NewInt(int64(i%10)), value.NewInt(int64(i)))
	}
	db.RegisterRemoteTable(remote, 1)
	if err := db.RegisterRemoteView("RV", "SELECT R.k, SUM(R.v) AS s FROM R GROUP BY R.k", 1); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT RV.k, RV.s FROM RV")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if err := db.RegisterRemoteView("Bad", "CREATE TABLE x (a int)", 1); err == nil {
		t.Error("non-SELECT view definition must error")
	}
}

func TestRegisterFuncViaFacade(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`
		CREATE TABLE keys (k int);
		INSERT INTO keys VALUES (1), (2), (2), (3);
	`); err != nil {
		t.Fatal(err)
	}
	s := schema.New(
		schema.Column{Table: "F", Name: "k", Type: value.KindInt},
		schema.Column{Table: "F", Name: "sq", Type: value.KindInt},
	)
	calls := 0
	db.RegisterFunc("F", s, []int{0}, func(args value.Row) ([]value.Row, error) {
		calls++
		k := args[0].Int()
		return []value.Row{{args[0], value.NewInt(k * k)}}, nil
	}, &stats.RelStats{Rows: 100, Cols: []stats.ColStats{{Distinct: 100}, {Distinct: 100}}}, 1)

	res, err := db.Query("SELECT keys.k, F.sq FROM keys, F WHERE keys.k = F.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != r[0].Int()*r[0].Int() {
			t.Errorf("square wrong: %v", r)
		}
	}
	if calls == 0 || calls > 4 {
		t.Errorf("calls = %d", calls)
	}
}

func TestExplainStatement(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	buildFig1SQL(t, db, 2000, 50)
	res, err := db.Query("EXPLAIN " + fig1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Columns) != 1 {
		t.Fatalf("EXPLAIN shape: %d rows, %v", len(res.Rows), res.Columns)
	}
	all := ""
	for _, r := range res.Rows {
		all += r[0].Str() + "\n"
	}
	if !strings.Contains(all, "estimated cost:") || !strings.Contains(all, "TableScan") {
		t.Errorf("EXPLAIN output:\n%s", all)
	}
	if strings.Contains(all, "measured cost:") {
		t.Error("plain EXPLAIN must not execute")
	}

	res, err = db.Query("EXPLAIN ANALYZE " + fig1SQL)
	if err != nil {
		t.Fatal(err)
	}
	all = ""
	for _, r := range res.Rows {
		all += r[0].Str() + "\n"
	}
	if !strings.Contains(all, "measured cost:") || !strings.Contains(all, "rows:") {
		t.Errorf("EXPLAIN ANALYZE output:\n%s", all)
	}

	if _, err := db.Query("EXPLAIN SELECT x FROM a UNION SELECT x FROM b"); err == nil {
		t.Error("EXPLAIN over UNION must error")
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	buildFig1SQL(t, db, 2000, 50)
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < 5; i++ {
				res, err := db.Query(fig1SQL)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) == 0 {
					errs <- fmt.Errorf("no rows")
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnionQueries(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`
		CREATE TABLE a (x int);
		CREATE TABLE b (x int);
		INSERT INTO a VALUES (1), (2), (3);
		INSERT INTO b VALUES (3), (4);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT x FROM a UNION ALL SELECT x FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("UNION ALL rows = %d, want 5", len(res.Rows))
	}
	res, err = db.Query("SELECT x FROM a UNION SELECT x FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("UNION rows = %d, want 4 distinct", len(res.Rows))
	}
	if _, err := db.Query("SELECT x FROM a UNION ALL SELECT x, x FROM b"); err == nil {
		t.Error("column-count mismatch must error")
	}
}

func TestLoadCSVFacade(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript("CREATE TABLE p (id int, name varchar)"); err != nil {
		t.Fatal(err)
	}
	n, err := db.LoadCSV("p", strings.NewReader("id,name\n1,widget\n2,gadget\n"))
	if err != nil || n != 2 {
		t.Fatalf("LoadCSV: n=%d err=%v", n, err)
	}
	res, err := db.Query("SELECT name FROM p WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "gadget" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := db.LoadCSV("nope", strings.NewReader("")); err == nil {
		t.Error("unknown table must error")
	}
}

func TestInsertInvalidatesCaches(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`
		CREATE TABLE t (a int);
		CREATE VIEW v AS (SELECT t.a, COUNT(*) AS n FROM t GROUP BY t.a);
		INSERT INTO t VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}
	r1, err := db.Query("SELECT v.a, v.n FROM v")
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 1 {
		t.Fatalf("rows = %d", len(r1.Rows))
	}
	if err := db.ExecScript("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	r2, err := db.Query("SELECT v.a, v.n FROM v")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Rows) != 2 {
		t.Fatalf("stale view result after insert: %d rows", len(r2.Rows))
	}
}

// Config.DegreeOfParallelism survives only as a compile-only shim for
// the frozen bench/ sources: setting it must change nothing — not the
// plan, not the measured cost, not the plan-cache key.
func TestDegreeOfParallelismIsInert(t *testing.T) {
	serial := quickstartDBWith(t, filterjoin.Config{})
	shim := quickstartDBWith(t, filterjoin.Config{DegreeOfParallelism: 4})

	if a, b := serial.Engine().ConfigFingerprint(), shim.Engine().ConfigFingerprint(); a != b {
		t.Errorf("config fingerprint %q, want %q", b, a)
	}
	for name, explain := range map[string]func(*filterjoin.DB) (string, error){
		"Explain":        func(db *filterjoin.DB) (string, error) { return db.Explain(quickstartQuery) },
		"ExplainAnalyze": func(db *filterjoin.DB) (string, error) { return db.ExplainAnalyze(quickstartQuery) },
	} {
		want, err := explain(serial)
		if err != nil {
			t.Fatal(err)
		}
		got, err := explain(shim)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s differs under DegreeOfParallelism 4\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
	want, err := serial.Query(quickstartQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shim.Query(quickstartQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Errorf("Result.Cost %s, want %s", got.Cost.String(), want.Cost.String())
	}
}

// Open(Config{}) resolves to fixed optimizer and plan-cache defaults:
// the plan-cache config fingerprint, and a 256-entry cache whose 257th
// distinct statement evicts exactly one entry.
func TestOpenDefaults(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	const fp = "off= noorder=false batch=1024 max=14 fj=true"
	if got := db.Engine().ConfigFingerprint(); got != fp {
		t.Errorf("default config fingerprint %q, want %q", got, fp)
	}
	if err := db.ExecScript(`CREATE TABLE T (a int); INSERT INTO T VALUES (1);`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 257; i++ {
		if _, err := db.Query(fmt.Sprintf(`SELECT T.a AS c%d FROM T`, i)); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i == 257 {
			want = 1
		}
		if st := db.CacheStats(); st.Misses != int64(i) || st.Evictions != want {
			t.Fatalf("after %d distinct statements: misses %d, evictions %d; want %d, %d",
				i, st.Misses, st.Evictions, i, want)
		}
	}
}

// TestNullJoinKeysMatchNothing pins SQL's = on NULL join keys through
// the public API: A holds (1,10), (NULL,20), (NULL,30) and B (1,100),
// (NULL,200), so A ⋈ B on k is the one row (10, 100) under every join
// method, and a NULL in GROUP BY still forms one group.
func TestNullJoinKeysMatchNothing(t *testing.T) {
	const join = `SELECT A.v, B.w FROM A, B WHERE A.k = B.k`
	for _, disabled := range [][]string{nil, {"merge", "nlj", "indexnl"}, {"hash", "nlj", "indexnl"}, {"hash", "merge", "nlj"}, {"hash", "merge", "indexnl"}} {
		db := filterjoin.Open(filterjoin.Config{})
		if err := db.ExecScript(`
			CREATE TABLE A (k int, v int);
			CREATE TABLE B (k int, w int);
			CREATE INDEX b_k ON B (k);
			INSERT INTO A VALUES (1, 10), (NULL, 20), (NULL, 30);
			INSERT INTO B VALUES (1, 100), (NULL, 200);`); err != nil {
			t.Fatal(err)
		}
		for _, d := range disabled {
			db.Optimizer().Disabled[d] = true
		}
		r, err := db.Query(join)
		if err != nil {
			t.Fatalf("disabled %v: %v", disabled, err)
		}
		if got := fmt.Sprint(r.Rows); got != "[(10, 100)]" {
			t.Errorf("disabled %v: %s returned %s, want [(10, 100)]", disabled, join, got)
		}
		checkSQL(t, db, join, r.Rows)
	}
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`CREATE TABLE A (k int, v int); INSERT INTO A VALUES (1, 10), (NULL, 20), (NULL, 30);`); err != nil {
		t.Fatal(err)
	}
	const group = `SELECT A.k, COUNT(*) AS n FROM A GROUP BY A.k`
	r, err := db.Query(group)
	if err != nil {
		t.Fatal(err)
	}
	checkSQL(t, db, group, r.Rows)
}

// TestLargeIntegersCompareExactly: integers beyond 2^53 compare as
// int64s, never rounded to floats, so every join method agrees with the
// hash join's key encoding, the compiled filter kernel with the
// interpreted predicate, and ORDER BY with both.
func TestLargeIntegersCompareExactly(t *testing.T) {
	const lo, hi = 9007199254740992, 9007199254740993 // 2^53, 2^53+1
	open := func(only string) *filterjoin.DB {
		db := filterjoin.Open(filterjoin.Config{})
		if err := db.ExecScript(fmt.Sprintf(`
			CREATE TABLE A (x int);
			CREATE TABLE B (y int);
			INSERT INTO A VALUES (%[1]d), (%[2]d);
			INSERT INTO B VALUES (%[1]d), (%[2]d);`, hi, lo)); err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"hash", "merge", "nlj", "indexnl", "filterjoin"} {
			db.Optimizer().Disabled[m] = m != only
		}
		return db
	}
	for m, kind := range map[string]string{"hash": "HashJoin", "merge": "MergeJoin", "nlj": "NestedLoopJoin"} {
		res, err := open(m).Query("SELECT A.x, B.y FROM A, B WHERE A.x = B.y")
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Plan.Find(kind) == nil {
			t.Fatalf("%s: plan has no %s", m, kind)
		}
		if len(res.Rows) != 2 {
			t.Errorf("%s: A.x = B.y returned %d rows %v, want 2", kind, len(res.Rows), res.Rows)
		}
	}
	db := open("")
	for _, q := range []string{
		fmt.Sprintf("SELECT x FROM A WHERE x = %d", lo),     // compiled kernel
		fmt.Sprintf("SELECT x FROM A WHERE x + 0 = %d", lo), // interpreted
	} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != lo {
			t.Errorf("%s returned %v, want only %d", q, res.Rows, lo)
		}
	}
	res, err := db.Query("SELECT x FROM A ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != lo || res.Rows[1][0].Int() != hi {
		t.Errorf("ORDER BY x returned %v, want %d then %d", res.Rows, lo, hi)
	}
}
