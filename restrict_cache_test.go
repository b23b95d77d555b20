package filterjoin_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/sqlref"
)

// grpServingDB is servingDB plus Grp(did, grp), which sorts the 100
// departments into groups of 2, 10, 40 and 48: joined in through
// grpViewQuery's parameter it decides the size of the filter set the
// magic view is restricted by, and so its Fig-5 class on the default
// grid — 0, 1, 2 and 2. HighAvg is a view over the magic view.
func grpServingDB(t *testing.T, cfg filterjoin.Config) *filterjoin.DB {
	t.Helper()
	db := servingDBWith(t, cfg)
	var b strings.Builder
	b.WriteString(`CREATE VIEW HighAvg AS (SELECT V.did, V.avgsal FROM DepAvgSal V WHERE V.avgsal > 2000.0);
		CREATE TABLE Grp (did int, grp int); INSERT INTO Grp VALUES `)
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
		if d > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d)", d, grp)
	}
	b.WriteString(";")
	if err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// grpViewQuery is the magic-view join over one group of departments.
// The parameter sits under an arithmetic expression, which statistics
// cannot classify: every value shares one plan-cache entry, and the
// actual |F| moves between Fig-5 classes underneath it.
const grpViewQuery = `
	SELECT E.did, E.sal, V.avgsal
	FROM Emp E, Grp G, DepAvgSal V
	WHERE E.did = G.did AND E.did = V.did AND E.sal > V.avgsal
	  AND E.age < 30 AND G.grp + 0 = ?`

// grpNestedQuery restricts the view over the view: the sub-plan cached
// in its Filter Join node holds a Filter Join over DepAvgSal with a
// cache of its own.
const grpNestedQuery = `SELECT G.did, H.avgsal FROM Grp G, HighAvg H WHERE G.did = H.did AND G.grp + 0 = ?`

// TestRestrictCacheCounts is the exact-count contract of the Filter
// Join's restricted sub-plan cache: one cached statement plans its
// restricted view once per Fig-5 class of the actual |F| and serves
// every other execution from the plan node; dropping the plan cache
// drops the node and starts over.
func TestRestrictCacheCounts(t *testing.T) {
	db := grpServingDB(t, filterjoin.Config{})
	stmt, err := db.Prepare(grpViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	run := func(grp int, wantState string, wantPlans, wantHits int64) {
		t.Helper()
		r, err := stmt.Exec(grp)
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheState != wantState {
			t.Errorf("grp %d: plan cache %s, want %s", grp, r.CacheState, wantState)
		}
		if m := db.FilterJoin().Metrics; m.RestrictPlans != wantPlans || m.RestrictHits != wantHits {
			t.Errorf("grp %d: restrict plans/hits = %d/%d, want %d/%d",
				grp, m.RestrictPlans, m.RestrictHits, wantPlans, wantHits)
		}
	}

	run(1, "miss", 1, 0)
	nested := db.Optimizer().Metrics.NestedOptimizations
	considered := db.Optimizer().Metrics.PlansConsidered
	for i := int64(1); i <= 4; i++ {
		run(1, "hit", 1, i)
	}
	if got := db.Optimizer().Metrics; got.NestedOptimizations != nested || got.PlansConsidered != considered {
		t.Errorf("cached executions searched: nested %d -> %d, plans considered %d -> %d",
			nested, got.NestedOptimizations, considered, got.PlansConsidered)
	}

	run(0, "hit", 2, 4) // |F| = 2: class 0, first Open there
	run(0, "hit", 2, 5)
	run(2, "hit", 3, 5) // |F| = 40: class 2
	run(3, "hit", 3, 6) // |F| = 48: class 2 again
	run(1, "hit", 3, 7)

	db.InvalidateCaches()
	run(1, "miss", 4, 7)
	run(1, "hit", 4, 8)
}

// TestRestrictCacheConcurrentSessions races four sessions on two cached
// plans — the magic-view join and the view over a view — whose bind
// values rotate through three |F| classes, so each plan node's sub-plan
// cache takes concurrent misses, first-store-wins and hits, and the
// cached sub-plans run concurrently over different filter sets. Every
// answer is checked against an engine without the Filter Join. CI runs
// it with -race -count=10.
func TestRestrictCacheConcurrentSessions(t *testing.T) {
	db := grpServingDB(t, filterjoin.Config{})
	oracle := grpServingDB(t, filterjoin.Config{DisableFilterJoin: true})
	queries := []string{grpViewQuery, grpNestedQuery}
	want := make([][4]string, len(queries))
	for qi, q := range queries {
		for grp := 0; grp < 4; grp++ {
			r, err := oracle.Query(q, grp)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) == 0 {
				t.Fatalf("query %d grp %d: oracle returned no rows", qi, grp)
			}
			want[qi][grp] = strings.Join(sqlref.Canon(r.Rows), "\n")
		}
		// One serial execution caches the plan every session then shares.
		if _, err := db.Query(q, 1); err != nil {
			t.Fatal(err)
		}
	}

	const sessions, iters = 4, 16
	start := make(chan struct{})
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			<-start
			for i := 0; i < iters; i++ {
				qi, grp := i%2, (w+i/2)%4
				r, err := sess.Query(queries[qi], grp)
				if err != nil {
					errs[w] = fmt.Errorf("session %d query %d grp %d: %w", w, qi, grp, err)
					return
				}
				if r.CacheState != "hit" {
					errs[w] = fmt.Errorf("session %d query %d grp %d: plan cache %s, want the shared entry", w, qi, grp, r.CacheState)
					return
				}
				if got := strings.Join(sqlref.Canon(r.Rows), "\n"); got != want[qi][grp] {
					errs[w] = fmt.Errorf("session %d query %d grp %d: rows differ from the engine without a Filter Join", w, qi, grp)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Three classes per top-level node at least were planned, and the
	// stream is long enough that most Opens found their class cached.
	if m := db.FilterJoin().Metrics; m.RestrictPlans < 6 || m.RestrictHits < sessions*iters/2 {
		t.Errorf("restrict plans/hits = %d/%d over %d executions", m.RestrictPlans, m.RestrictHits, sessions*iters)
	}
}
