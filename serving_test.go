package filterjoin_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/cost"
	"filterjoin/internal/value"
)

// servingDB builds the quickstart catalog (tables, index, magic view)
// with the serving-layer defaults, optionally with the plan cache off.
func servingDB(t *testing.T, cacheOff bool) *filterjoin.DB {
	t.Helper()
	return servingDBWith(t, filterjoin.Config{DisablePlanCache: cacheOff})
}

// servingSchemaSQL is the quickstart catalog shape: Emp/Dept, the
// emp_did index and the DepAvgSal view of the paper's Fig 1.
const servingSchemaSQL = `
	CREATE TABLE Emp (eid int, did int, sal float, age int);
	CREATE TABLE Dept (did int, budget int);
	CREATE INDEX emp_did ON Emp (did);
	CREATE VIEW DepAvgSal AS
	  (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did);
`

func servingDBWith(t *testing.T, cfg filterjoin.Config) *filterjoin.DB {
	t.Helper()
	db := filterjoin.Open(cfg)
	if err := db.ExecScript(servingSchemaSQL); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO Emp VALUES ")
	const nEmp, nDept = 3000, 100
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

func rowsKey(rows []value.Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.FullKey())
		b.WriteString("|")
	}
	return b.String()
}

const servingViewQuery = `
	SELECT E.did, E.sal, V.avgsal
	FROM Emp E, Dept D, DepAvgSal V
	WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
	  AND E.age < 30 AND D.budget > 100000`

func TestPlanCacheHitMissBypass(t *testing.T) {
	db := servingDB(t, false)

	r1, err := db.Query(servingViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheState != "miss" {
		t.Errorf("first run CacheState = %q, want miss", r1.CacheState)
	}
	r2, err := db.Query(servingViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheState != "hit" {
		t.Errorf("second run CacheState = %q, want hit", r2.CacheState)
	}
	if rowsKey(r1.Rows) != rowsKey(r2.Rows) {
		t.Errorf("hit returned different rows than miss")
	}
	if r1.Cost != r2.Cost {
		t.Errorf("hit counters %+v differ from miss counters %+v", r2.Cost, r1.Cost)
	}

	// Textually different literal in the same selectivity class: the
	// normalizer parameterizes it, so the entry is shared.
	r3, err := db.Query(strings.Replace(servingViewQuery, "E.age < 30", "E.age  <  30", 1))
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheState != "hit" {
		t.Errorf("respaced query CacheState = %q, want hit", r3.CacheState)
	}

	st := db.CacheStats()
	if st.Hits < 2 || st.Misses < 1 {
		t.Errorf("cache stats = %+v, want >=2 hits and >=1 miss", st)
	}

	// Programmatic plans bypass the cache.
	p, err := db.Plan(servingViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := db.RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(rp.Rows) != rowsKey(r1.Rows) {
		t.Errorf("RunPlan rows differ from cached rows")
	}

	// A cache-disabled engine reports bypass on every run.
	off := servingDB(t, true)
	ro, err := off.Query(servingViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ro.CacheState != "bypass" {
		t.Errorf("cache-off CacheState = %q, want bypass", ro.CacheState)
	}
	if so := off.CacheStats(); so.Bypasses == 0 || so.Hits != 0 || so.Misses != 0 {
		t.Errorf("cache-off stats = %+v, want bypasses only", so)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := servingDB(t, false)

	stmt, err := db.Prepare(`SELECT E.eid, E.age FROM Emp E WHERE E.age < ? AND E.did = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", stmt.NumParams())
	}
	r1, err := stmt.Exec(25, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the literal spelling.
	want, err := db.Query(`SELECT E.eid, E.age FROM Emp E WHERE E.age < 25 AND E.did = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(r1.Rows) != rowsKey(want.Rows) {
		t.Errorf("prepared rows differ from literal rows")
	}

	// Re-execution with a different binding in the same class hits, and
	// the rows reflect the NEW binding — the stale-plan trap the
	// bind-at-Open design exists to avoid.
	r2, err := stmt.Exec(23, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheState != "hit" {
		t.Errorf("re-exec CacheState = %q, want hit", r2.CacheState)
	}
	want2, err := servingDB(t, true).Query(`SELECT E.eid, E.age FROM Emp E WHERE E.age < 23 AND E.did = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(r2.Rows) != rowsKey(want2.Rows) {
		t.Errorf("rebound execution returned stale rows")
	}

	// Explicit $n placeholders, out of order.
	st2, err := db.Prepare(`SELECT E.eid FROM Emp E WHERE E.age < $2 AND E.did = $1`)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := st2.Exec(2, 24)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := db.Query(`SELECT E.eid FROM Emp E WHERE E.age < 24 AND E.did = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(r3.Rows) != rowsKey(want3.Rows) {
		t.Errorf("$n binding mismatch")
	}

	// Error paths.
	if _, err := stmt.Exec(25); err == nil {
		t.Errorf("wrong arg count should fail")
	}
	if _, err := stmt.Exec(25, 0, 1); err == nil {
		t.Errorf("extra args should fail")
	}
	if _, err := stmt.Exec(struct{}{}, 0); err == nil {
		t.Errorf("unsupported arg type should fail")
	}
	if _, err := db.Prepare(`CREATE TABLE nope (a int)`); err == nil {
		t.Errorf("Prepare of DDL should fail")
	}
	if _, err := db.Prepare(`SELECT E.eid FROM Emp E WHERE E.age < $1 AND E.did = $3`); err == nil {
		t.Errorf("non-contiguous $n slots should fail at Prepare")
	}
	if _, err := db.Query(`SELECT E.eid FROM Emp E WHERE E.age < 25`, 99); err == nil {
		t.Errorf("args against a placeholder-free query should fail")
	}
}

// TestPlanCacheInvalidationOnDDL pins the satellite requirement: a cached
// plan must not survive CREATE INDEX or a data change — the re-optimized
// plan must see the new physical design.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(`CREATE TABLE Emp (eid int, did int, sal float, age int);`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO Emp VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d,%d.0,%d)", i, i%100, 1000+i%500, 20+i%40)
	}
	b.WriteString(";")
	if err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT E.eid FROM Emp E WHERE E.did = 7`
	epoch0 := db.Engine().Epoch()
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheState != "miss" {
		t.Fatalf("first run = %q, want miss", r1.CacheState)
	}
	if r2, _ := db.Query(q); r2.CacheState != "hit" {
		t.Fatalf("second run = %q, want hit", r2.CacheState)
	}
	before, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before, "IndexLookup") {
		t.Fatalf("no index exists yet, but plan probes one:\n%s", before)
	}

	if _, err := db.Exec(`CREATE INDEX emp_did ON Emp (did)`); err != nil {
		t.Fatal(err)
	}
	if db.Engine().Epoch() == epoch0 {
		t.Errorf("CREATE INDEX did not bump the catalog epoch")
	}
	r3, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheState != "miss" {
		t.Errorf("post-DDL run = %q, want miss (stale plan served)", r3.CacheState)
	}
	if rowsKey(r3.Rows) != rowsKey(r1.Rows) {
		t.Errorf("rows changed across CREATE INDEX")
	}
	after, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after, "IndexLookup") {
		t.Errorf("re-optimized plan ignores the new index:\n%s", after)
	}

	// A data change (stat refresh) also drops cached plans.
	if _, err := db.Exec(`INSERT INTO Emp VALUES (99999, 7, 1234.0, 33)`); err != nil {
		t.Fatal(err)
	}
	r4, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheState != "miss" {
		t.Errorf("post-INSERT run = %q, want miss", r4.CacheState)
	}
	if len(r4.Rows) != len(r1.Rows)+1 {
		t.Errorf("post-INSERT rows = %d, want %d", len(r4.Rows), len(r1.Rows)+1)
	}
}

// TestClassBoundaryReoptimizes pins the honesty property of the
// selectivity-class key: a binding inside the cached class is served
// without touching the optimizer, while a binding in a different class
// of the Fig 5 grid provably re-optimizes (the prototype's
// PlansConsidered moves).
func TestClassBoundaryReoptimizes(t *testing.T) {
	db := servingDB(t, false)
	stmt, err := db.Prepare(`SELECT E.eid FROM Emp E WHERE E.age < ?`)
	if err != nil {
		t.Fatal(err)
	}

	// age < 25 retains ~11% of Emp; with the default grid
	// {0.02, 0.25, 0.6, 1.0} that is solidly inside the (0.02, 0.25]
	// class. age < 100 retains every row (class of selectivity 1.0).
	if r, err := stmt.Exec(25); err != nil {
		t.Fatal(err)
	} else if r.CacheState != "miss" {
		t.Fatalf("first exec = %q, want miss", r.CacheState)
	}

	flat := db.Optimizer().Metrics.PlansConsidered
	r2, err := stmt.Exec(27) // same class: ~17% selectivity
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheState != "hit" {
		t.Errorf("same-class exec = %q, want hit", r2.CacheState)
	}
	if got := db.Optimizer().Metrics.PlansConsidered; got != flat {
		t.Errorf("hit moved PlansConsidered %d -> %d: silent re-optimization", flat, got)
	}

	r3, err := stmt.Exec(100) // selectivity ~1.0: different class
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheState != "miss" {
		t.Errorf("cross-class exec = %q, want miss (dishonest reuse)", r3.CacheState)
	}
	if got := db.Optimizer().Metrics.PlansConsidered; got <= flat {
		t.Errorf("cross-class miss did not re-optimize (PlansConsidered still %d)", got)
	}
	if len(r3.Rows) != 3000 {
		t.Errorf("age < 100 rows = %d, want all 3000", len(r3.Rows))
	}

	// Both classes now cached: each serves hits independently.
	if r, _ := stmt.Exec(26); r.CacheState != "hit" {
		t.Errorf("low class lost its entry")
	}
	if r, _ := stmt.Exec(99); r.CacheState != "hit" {
		t.Errorf("high class was not cached")
	}
}

// TestCachedUncachedDifferential is the acceptance criterion: over a
// corpus of queries (including the paper's magic-view join and a join
// residual with a constant), cached execution — both the miss that
// populates an entry and the hit that reuses it — returns SQL's answer
// (sqlref), and rows AND cost-counter totals bit-identical to an engine
// with the cache disabled. The
// hit binds other constants in the same selectivity classes than the
// miss, so a plan that kept a planning-time value instead of binding the
// current one answers for the wrong constants.
func TestCachedUncachedDifferential(t *testing.T) {
	cached := servingDB(t, false)
	uncached := servingDB(t, true)

	corpus := []struct {
		text      string // a %v for every constant the hit rebinds
		miss, hit []any
	}{
		{`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V
		  WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
		    AND E.age < %v AND D.budget > %v`, []any{30, 100000}, []any{30, 95000}},
		{`SELECT E.eid, E.sal FROM Emp E WHERE E.age < %v`, []any{25}, []any{24}},
		{`SELECT E.eid FROM Emp E WHERE E.did = %v`, []any{11}, []any{12}},
		{`SELECT E.did, COUNT(*) AS n, AVG(E.sal) AS avg FROM Emp E WHERE E.age < %v GROUP BY E.did`, []any{40}, []any{41}},
		{`SELECT E.did, E.sal, F.sal FROM Emp E, Emp F WHERE E.did = F.did AND E.age < %v ORDER BY E.did`, []any{23}, []any{22}},
		{`SELECT DISTINCT E.did FROM Emp E, Dept D WHERE E.did = D.did AND D.budget > %v`, []any{100000}, []any{95000}},
		{`SELECT E.eid FROM Emp E WHERE E.age < %v AND E.sal > %v LIMIT 10`, []any{30, "4000.0"}, []any{30, "3900.0"}},
		{`SELECT D.did, V.avgsal FROM Dept D, DepAvgSal V WHERE D.did = V.did AND D.budget > %v`, []any{140000}, []any{130000}},
		{`SELECT E.eid, F.eid FROM Emp E, Emp F WHERE E.did = F.did AND E.age < %v AND E.sal + F.sal > %v`, []any{23, 9000}, []any{23, 8000}},
	}
	for i, q := range corpus {
		miss, err := cached.Query(fmt.Sprintf(q.text, q.miss...))
		if err != nil {
			t.Fatalf("query %d miss: %v", i, err)
		}
		hit, err := cached.Query(fmt.Sprintf(q.text, q.hit...))
		if err != nil {
			t.Fatalf("query %d hit: %v", i, err)
		}
		if miss.CacheState != "miss" || hit.CacheState != "hit" {
			t.Fatalf("query %d states = %q/%q, want miss/hit", i, miss.CacheState, hit.CacheState)
		}
		for _, run := range []struct {
			r    *filterjoin.Result
			args []any
		}{{miss, q.miss}, {hit, q.hit}} {
			checkSQL(t, cached, fmt.Sprintf(q.text, run.args...), run.r.Rows)
			base, err := uncached.Query(fmt.Sprintf(q.text, run.args...))
			if err != nil {
				t.Fatalf("query %d uncached at %v: %v", i, run.args, err)
			}
			if rowsKey(run.r.Rows) != rowsKey(base.Rows) {
				t.Errorf("query %d (%s at %v): rows diverge from uncached run", i, run.r.CacheState, run.args)
			}
			if run.r.Cost != base.Cost {
				t.Errorf("query %d (%s at %v): counters %+v != uncached %+v", i, run.r.CacheState, run.args, run.r.Cost, base.Cost)
			}
		}
	}
}

// TestCacheKeyKeepsLiterals is the cached differential's collision leg:
// each pair differs only in a literal the plan-cache key (FormatSelect)
// must keep apart, a float written with an integral value and a quote
// doubled inside a string. Run second, each statement must still miss
// and return SQL's answer, not the rows of the first statement's plan.
func TestCacheKeyKeepsLiterals(t *testing.T) {
	db := servingDB(t, false)
	for _, pair := range [][2]string{
		{`SELECT E.eid, E.eid / 2 FROM Emp E WHERE E.age > 55`,
			`SELECT E.eid, E.eid / 2.0 FROM Emp E WHERE E.age > 55`},
		{`SELECT D.did, 'a', 'b' FROM Dept D`,
			`SELECT D.did, 'a'', ''b' FROM Dept D`},
	} {
		for _, q := range pair {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if r.CacheState != "miss" {
				t.Errorf("%s: cache=%s, want miss", q, r.CacheState)
			}
			checkSQL(t, db, q, r.Rows)
		}
	}
}

// TestConcurrentSessionsDifferential runs a mixed Query/Prepare/Exec
// workload from N goroutine sessions against one engine — including
// catalog-mutating inserts into a scratch table that clear the cache
// mid-flight — and checks every result against the serial answers,
// which must be SQL's (sqlref). CI runs this under -race.
func TestConcurrentSessionsDifferential(t *testing.T) {
	db := servingDB(t, false)
	if err := db.ExecScript(`CREATE TABLE Scratch (k int, v int);`); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		servingViewQuery,
		`SELECT E.eid, E.sal FROM Emp E WHERE E.age < 25`,
		`SELECT E.did, COUNT(*) AS n FROM Emp E GROUP BY E.did`,
		`SELECT E.eid FROM Emp E WHERE E.did = 42`,
		`SELECT D.did, V.avgsal FROM Dept D, DepAvgSal V WHERE D.did = V.did AND D.budget > 140000`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		r, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		checkSQL(t, db, q, r.Rows)
		want[i] = rowsKey(r.Rows)
	}

	const workers = 8
	const iters = 12
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			stmt, err := sess.Prepare(`SELECT E.eid FROM Emp E WHERE E.age < ? AND E.did = ?`)
			if err != nil {
				errc <- err
				return
			}
			for it := 0; it < iters; it++ {
				qi := (w + it) % len(queries)
				r, err := sess.Query(queries[qi])
				if err != nil {
					errc <- fmt.Errorf("worker %d query %d: %w", w, qi, err)
					return
				}
				if rowsKey(r.Rows) != want[qi] {
					errc <- fmt.Errorf("worker %d query %d: rows diverge from serial run (state=%s)", w, qi, r.CacheState)
					return
				}
				if _, err := stmt.Exec(22+it%5, w); err != nil {
					errc <- fmt.Errorf("worker %d stmt: %w", w, err)
					return
				}
				if it%4 == 3 {
					// Catalog mutation from a concurrent session: takes the
					// write lock, bumps the epoch, clears the cache. Queries
					// on Emp/Dept stay row-identical throughout.
					if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO Scratch VALUES (%d, %d)`, w, it)); err != nil {
						errc <- fmt.Errorf("worker %d insert: %w", w, err)
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The scratch inserts all landed.
	r, err := db.Query(`SELECT S.k FROM Scratch S`)
	if err != nil {
		t.Fatal(err)
	}
	if wantRows := workers * (iters / 4); len(r.Rows) != wantRows {
		t.Errorf("scratch rows = %d, want %d", len(r.Rows), wantRows)
	}
	if st := db.CacheStats(); st.Clears == 0 || st.Hits == 0 {
		t.Errorf("workload should have produced both cache clears and hits: %+v", st)
	}
}

// TestPreparedExplainGolden pins the prepared-statement EXPLAIN shapes:
// bound (plan for the actual bindings, cache banner) and unbound (the
// generic plan with `?N` placeholders, cache=bypass).
func TestPreparedExplainGolden(t *testing.T) {
	db := servingDB(t, false)
	stmt, err := db.Prepare(`SELECT E.eid, E.age FROM Emp E WHERE E.age < $1 AND E.did = $2`)
	if err != nil {
		t.Fatal(err)
	}
	unbound, err := stmt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unbound, "cache=bypass") {
		t.Errorf("unbound explain should bypass the cache:\n%s", unbound)
	}
	checkGolden(t, "prepared_explain_unbound", unbound)

	bound, err := stmt.Explain(25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bound, "cache=miss") {
		t.Errorf("first bound explain should miss:\n%s", bound)
	}
	checkGolden(t, "prepared_explain_bound", bound)

	// EXPLAIN populated the cache: executing the same bindings now hits.
	r, err := stmt.Exec(25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheState != "hit" {
		t.Errorf("exec after explain = %q, want hit", r.CacheState)
	}
}

var _ = cost.Counter{} // keep the import for the differential assertions

// TestScratchStoreConcurrentSessions runs the serving mix — the
// 4-relation magic-view join, the 2-relation point join, a prepared
// statement, a hash join with GROUP BY — from four sessions at once on
// one engine, so every execution draws its scratch from, and gives it
// back to, the engine's one store while the others do. Every answer must
// equal, row for row, the one a serial run gave. Under the package's
// tests the store poisons what it keeps (exec.PoisonScratch). CI runs it
// with -race -count=10.
func TestScratchStoreConcurrentSessions(t *testing.T) {
	db := servingDB(t, false)
	type op struct {
		text string
		args []any
	}
	var mix []op
	for i := 0; i < 12; i++ {
		did, age := (i*7)%100, 22+i%8
		mix = append(mix,
			op{text: fmt.Sprintf(`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, Dept D2, DepAvgSal V `+
				`WHERE E.did = D.did AND E.did = D2.did AND E.did = V.did AND E.sal > V.avgsal `+
				`AND E.did = %d AND E.age < %d AND D.budget > 10000 AND D2.budget > 0`, did, age)},
			op{text: fmt.Sprintf(`SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did AND E.did = %d AND D.budget > 10000`, did)},
			op{text: `SELECT E.eid, E.age FROM Emp E, Dept D WHERE E.did = D.did AND E.age < $1 AND E.did = $2`, args: []any{age, did}},
			op{text: fmt.Sprintf(`SELECT D.did, COUNT(*), SUM(E.sal) FROM Emp E, Dept D WHERE E.did = D.did AND D.budget > %d GROUP BY D.did`, 40000+i*1000)},
			op{text: servingViewQuery})
	}
	want := make([]string, len(mix))
	for i, o := range mix {
		r, err := db.Query(o.text, o.args...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rowsKey(r.Rows)
	}
	const sessions, rounds = 4, 2
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			for k := 0; k < rounds*len(mix); k++ {
				i := (k*(2*w+1) + w) % len(mix) // each session walks the mix in its own order
				r, err := sess.Query(mix[i].text, mix[i].args...)
				if err == nil && rowsKey(r.Rows) != want[i] {
					err = fmt.Errorf("rows differ from the serial run")
				}
				if err != nil {
					errs[w] = fmt.Errorf("session %d, %s: %w", w, mix[i].text, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeHitBytesBudget pins what one cached execution of the serving
// mix's 4-relation magic-view point query allocates: rows, slabs and
// morsel buffers sized to the ~10-row answer, not to the morsel size,
// and drawn from the engine's scratch store. It was 830 KiB when every
// arena-owning operator zeroed a 4096-value slab and every drain loop
// allocated 1024 row headers, and 97 KiB before the store.
func TestServeHitBytesBudget(t *testing.T) {
	db := servingDB(t, false)
	query := func(i int) string {
		return fmt.Sprintf(`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, Dept D2, DepAvgSal V `+
			`WHERE E.did = D.did AND E.did = D2.did AND E.did = V.did AND E.sal > V.avgsal `+
			`AND E.did = %d AND E.age < %d AND D.budget > 10000 AND D2.budget > 0`, i%100, 22+i%8)
	}
	for i := 0; i < 20; i++ { // fill the plan cache
		if _, err := db.Query(query(i)); err != nil {
			t.Fatal(err)
		}
	}
	const runs, budgetKiB = 200, 80
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := db.Query(query(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024; perRun > budgetKiB {
		t.Fatalf("cached point query allocates %.0f KiB per execution, budget %d KiB", perRun, budgetKiB)
	} else {
		t.Logf("%.0f KiB per execution", perRun)
	}
}

// TestJoinAggBytesBudget pins what one cached execution of join_agg's
// hash join + GROUP BY query allocates: the join's rows live for one
// pull of the fold (internal/exec/batch.go), so the bytes follow the
// groups and the build side, not the Emp rows streamed through the
// join. They were about 29 MB at 200 000 Emp rows when every joined row
// had its own slab space, four times what 50 000 rows cost. The slabs,
// carriers and hash tables come from the engine's scratch store, so an
// execution also stays under an absolute budget; it was 864 KiB when
// each execution carved its own.
func TestJoinAggBytesBudget(t *testing.T) {
	perRun := func(nEmp int) float64 {
		const nDept = 1000
		db := filterjoin.Open(filterjoin.Config{})
		if err := db.ExecScript(servingSchemaSQL); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < nEmp; i += 5000 {
			b.WriteString("INSERT INTO Emp VALUES ")
			for j := i; j < min(i+5000, nEmp); j++ {
				if j > i {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "(%d,%d,%d.0,%d)", j, j*nDept/nEmp, 1000+(j*37)%5000, 20+j%40)
			}
			b.WriteString(";")
		}
		b.WriteString("INSERT INTO Dept VALUES ")
		for d := 0; d < nDept; d++ {
			if d > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "(%d,%d)", d, 20000+(d*211)%70000)
		}
		b.WriteString(";")
		if err := db.ExecScript(b.String()); err != nil {
			t.Fatal(err)
		}
		query := func(i int) {
			r, err := db.Query(fmt.Sprintf(`SELECT D.did, COUNT(*), SUM(E.sal) FROM Emp E, Dept D `+
				`WHERE E.did = D.did AND D.budget > %d GROUP BY D.did`, 40000+i%1000))
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) == 0 {
				t.Fatal("no groups")
			}
		}
		for i := 0; i < 3; i++ { // fill the plan cache
			query(i)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	}
	small, large := perRun(50_000), perRun(200_000)
	t.Logf("%.0f KiB per execution at 50 000 Emp rows, %.0f KiB at 200 000", small, large)
	if large > 1.1*small || small > 1.1*large {
		t.Fatalf("join + GROUP BY allocates %.0f KiB at 200 000 Emp rows and %.0f KiB at 50 000: more than 10 %% apart", large, small)
	}
	const budgetKiB = 640
	if large > budgetKiB || small > budgetKiB {
		t.Fatalf("join + GROUP BY allocates %.0f KiB per execution at 200 000 Emp rows and %.0f KiB at 50 000, budget %d KiB", large, small, budgetKiB)
	}
}
