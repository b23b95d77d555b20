package filterjoin_test

import (
	"fmt"
	"strings"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/plan"
	"filterjoin/internal/sqlref"
)

// adaptiveDB builds a workload where the optimizer's independence
// assumption is off by 10x: Big.a and Big.b are perfectly correlated
// (always equal), so sel(a=5 AND b=5) is estimated 0.1*0.1 = 0.01 but is
// really 0.1. Histograms see each column alone and cannot help.
func adaptiveDB(t *testing.T, cfg filterjoin.Config) *filterjoin.DB {
	t.Helper()
	db := filterjoin.Open(cfg)
	if err := db.ExecScript(`
		CREATE TABLE Big (id int, g int, a int, b int);
		CREATE TABLE Small (g int, v int);
	`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	const nBig, nSmall = 4000, 500
	b.WriteString("INSERT INTO Big VALUES ")
	for i := 0; i < nBig; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d,%d,%d)", i, i%50, i%10, i%10)
	}
	b.WriteString("; INSERT INTO Small VALUES ")
	for i := 0; i < nSmall; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d)", i%50, i*7)
	}
	b.WriteString(";")
	if err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

const correlatedQuery = `
	SELECT B.id, S.v FROM Big B, Small S
	WHERE B.g = S.g AND B.a = 5 AND B.b = 5
	ORDER BY B.id`

// Statistics feedback and the plan cache (satellite: refined stats must
// not leak through the cache): the first run misestimates and is fed
// back, bumping the epoch, so the second run re-optimizes with corrected
// estimates instead of serving the stale cached plan; the corrected run
// produces no new feedback, so the third run is a clean cache hit.
func TestAdaptiveFeedbackPlanCacheEpoch(t *testing.T) {
	db := adaptiveDB(t, filterjoin.Config{AdaptiveFeedback: true})
	eng := db.Engine()

	epoch0 := eng.Epoch()
	r1, err := db.Query(correlatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheState != "miss" {
		t.Fatalf("first run CacheState = %q, want miss", r1.CacheState)
	}
	epoch1 := eng.Epoch()
	if epoch1 == epoch0 {
		t.Fatal("10x misestimate was not absorbed: epoch did not move")
	}

	r2, err := db.Query(correlatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheState != "miss" {
		t.Fatalf("run after feedback CacheState = %q, want miss (stale plan must not be served)", r2.CacheState)
	}
	if got, want := fmt.Sprint(sqlref.Canon(r2.Rows)), fmt.Sprint(sqlref.Canon(r1.Rows)); got != want {
		t.Fatalf("feedback changed query results:\n%v\n%v", got, want)
	}
	// The corrected plan's estimates match the actuals, so run 2 feeds
	// nothing back (no epoch bump) and run 3 is a clean cache hit.
	if eng.Epoch() != epoch1 {
		t.Fatal("accurately-planned run must not bump the epoch again")
	}
	r3, err := db.Query(correlatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheState != "hit" {
		t.Fatalf("post-convergence CacheState = %q, want hit", r3.CacheState)
	}
	if eng.Epoch() != epoch1 {
		t.Fatal("a converged query must stop bumping the epoch")
	}

	// The refined statistics must actually move the leaf estimate from
	// the independence guess (~40 rows) to the measured truth (~400).
	p, err := db.Plan(correlatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	var leaf *plan.Node
	p.Walk(func(n *plan.Node) {
		if n.Source == "Big" {
			leaf = n
		}
	})
	if leaf == nil {
		t.Fatal("plan has no Big leaf with feedback provenance")
	}
	if leaf.Rows < 300 || leaf.Rows > 500 {
		t.Fatalf("post-feedback Big leaf estimate = %.0f rows, want ~400", leaf.Rows)
	}

	// Control: with feedback off the same workload serves the stale
	// cached plan on the second run.
	ctl := adaptiveDB(t, filterjoin.Config{})
	if _, err := ctl.Query(correlatedQuery); err != nil {
		t.Fatal(err)
	}
	rc, err := ctl.Query(correlatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rc.CacheState != "hit" {
		t.Fatalf("static control second run CacheState = %q, want hit", rc.CacheState)
	}
}

// Steady state: after the workload converges, repeated runs hit the
// cache and never move the epoch, regardless of how many warmup rounds
// preceded them.
func TestAdaptiveFeedbackConverges(t *testing.T) {
	db := adaptiveDB(t, filterjoin.Config{AdaptiveFeedback: true})
	eng := db.Engine()
	for i := 0; i < 4; i++ {
		if _, err := db.Query(correlatedQuery); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Epoch()
	res, err := db.Query(correlatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheState != "hit" {
		t.Fatalf("steady-state CacheState = %q, want hit", res.CacheState)
	}
	if eng.Epoch() != before {
		t.Fatal("steady-state query keeps bumping the epoch: feedback does not converge")
	}
}

// With feedback off (the default), the engine must be bit-identical in
// rows and counters at morsel sizes 1 and 1024.
func TestAdaptiveDisabledBitIdentical(t *testing.T) {
	row := adaptiveDB(t, filterjoin.Config{})
	row.SetBatchSize(1)
	batch := adaptiveDB(t, filterjoin.Config{})
	queries := []string{
		correlatedQuery,
		`SELECT B.g, COUNT(*) FROM Big B WHERE B.a < 7 GROUP BY B.g`,
		`SELECT B.id FROM Big B, Small S WHERE B.g = S.g AND B.b > 8 ORDER BY B.id`,
	}
	for _, q := range queries {
		r1, err := row.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		r2, err := batch.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if r1.Cost != r2.Cost {
			t.Errorf("query %q: row counter %s != batch counter %s", q, r1.Cost.String(), r2.Cost.String())
		}
		if got, want := fmt.Sprint(sqlref.Canon(r1.Rows)), fmt.Sprint(sqlref.Canon(r2.Rows)); got != want {
			t.Errorf("query %q: row/batch results differ", q)
		}
	}
}

// A cached plan serves every binding of its selectivity class, so
// feedback must judge a run under the binding it ran with: `< 900`
// served from `< 100`'s cache entry returns 900 rows, which is no
// misestimate of `B.id < 900`, and must neither correct `B.id < 100`'s
// statistics nor move the epoch.
func TestAdaptiveFeedbackUsesExecutionBinding(t *testing.T) {
	db := adaptiveDB(t, filterjoin.Config{AdaptiveFeedback: true})
	eng := db.Engine()
	const low, high = `SELECT B.id FROM Big B WHERE B.id < 100`, `SELECT B.id FROM Big B WHERE B.id < 900`
	epoch0 := eng.Epoch()
	for i := 0; i < 4; i++ {
		for _, q := range []string{low, high} {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && res.CacheState != "hit" {
				t.Fatalf("round %d %q: CacheState = %q, want hit (test premise: one Fig-5 class)", i, q, res.CacheState)
			}
		}
		if got := eng.Epoch(); got != epoch0 {
			t.Fatalf("round %d: epoch %d -> %d: an accurately estimated binding was fed back", i, epoch0, got)
		}
	}
	p, err := db.Plan(low)
	if err != nil {
		t.Fatal(err)
	}
	leaf := p.Find("TableScan")
	if leaf == nil || leaf.Source != "Big" {
		t.Fatalf("plan has no Big scan:\n%s", plan.Format(p, db.Model()))
	}
	if leaf.Rows < 80 || leaf.Rows > 130 {
		t.Fatalf("B.id < 100 estimated at %.0f rows, want ~101", leaf.Rows)
	}
}
