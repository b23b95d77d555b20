package filterjoin_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"filterjoin"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/plan"
	"filterjoin/internal/schema"
	"filterjoin/internal/sql"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// distDB builds a two-site database: a small local Customer table and a
// remote Orders table (site 1) with a hash index on the join column, so
// both ship-whole and fetch-matches strategies are available.
func distDB(t *testing.T, cfg filterjoin.Config) *filterjoin.DB {
	t.Helper()
	db := filterjoin.Open(cfg)
	if err := db.ExecScript(`CREATE TABLE Customer (ckey int, segment int);`); err != nil {
		t.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO Customer VALUES ")
	for i := 0; i < 8; i++ {
		if i > 0 {
			ins.WriteString(",")
		}
		fmt.Fprintf(&ins, "(%d, %d)", i+1, i%3)
	}
	if err := db.ExecScript(ins.String()); err != nil {
		t.Fatal(err)
	}
	orders := storage.NewTable("Orders", schema.New(
		schema.Column{Table: "Orders", Name: "okey", Type: value.KindInt},
		schema.Column{Table: "Orders", Name: "ckey", Type: value.KindInt},
		schema.Column{Table: "Orders", Name: "qty", Type: value.KindInt},
	))
	for i := 0; i < 240; i++ {
		orders.MustInsert(
			value.NewInt(int64(i)),
			value.NewInt(int64(i%60+1)), // ckeys 1..60; only 1..8 match Customer
			value.NewInt(int64(i%7)),
		)
	}
	if _, err := orders.CreateIndex("orders_ckey", []int{1}); err != nil {
		t.Fatal(err)
	}
	db.RegisterRemoteTable(orders, 1)
	return db
}

const distJoinQuery = `SELECT C.ckey, O.okey FROM Customer C, Orders O WHERE C.ckey = O.ckey AND O.qty < 3`

// Acceptance criterion: under the default (eventual-delivery) chaos
// transport, every seed yields rows identical to the fault-free run,
// same-seed runs produce identical counter totals, and the fault
// surcharge is visible in the new counters.
func TestChaosFacadeRowIdentical(t *testing.T) {
	free := distDB(t, filterjoin.Config{})
	freeRes, err := free.Query(distJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := sqlref.Canon(freeRes.Rows)

	for _, seed := range []int64{1, 2, 3} {
		db := distDB(t, filterjoin.Config{})
		db.SetChaos(&dist.ChaosConfig{Seed: seed, DropRate: 0.5, MaxLatencyMs: 50, OutageEvery: 6, OutageLen: 2},
			dist.RetryPolicy{MaxAttempts: 5, TimeoutMs: 30, BackoffMs: 2})
		// Force the chattiest strategy — fetch matches by key, one
		// message per outer row — so every seed's schedule has enough
		// sends to hit drops and outage windows.
		for _, m := range []string{"hash", "merge", "nlj", "indexnl", "filterjoin"} {
			db.Optimizer().Disabled[m] = true
		}
		r1, err := db.Query(distJoinQuery)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := sqlref.Canon(r1.Rows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: rows differ from fault-free run:\n%v\n%v", seed, got, want)
		}
		if r1.DegradedFrom != nil {
			t.Fatalf("seed %d: eventual-delivery transport must not degrade", seed)
		}
		// Same seed, same query ⇒ identical schedule ⇒ identical totals.
		r2, err := db.Query(distJoinQuery)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if r1.Cost != r2.Cost {
			t.Fatalf("seed %d: nondeterministic totals: %s vs %s", seed, r1.Cost.String(), r2.Cost.String())
		}
		if r1.Cost.Retries == 0 || r1.Cost.WaitMs == 0 {
			t.Fatalf("seed %d: schedule injected no faults: %s", seed, r1.Cost.String())
		}
	}
}

// The degradation path: outage windows longer than the retry budget,
// eventual delivery off, so the per-outer-row fetch-matches strategy
// dies inside a window with a *SiteError and the facade reruns the
// retained fault-free fallback plan.
// degradeDB stacks the deck so fetch-matches is the primary strategy
// and bulk shipment + hash join the retained fallback: bytes are priced
// far above messages, and only 8 of 60 order keys match, so fetching
// matches by key ships a fraction of the rows whole-table shipment
// would. The outage schedule (per site: 5 attempts up, 4 down) is
// longer than the 3-attempt retry budget and eventual delivery is off,
// so fetch-matches — one message per outer row — dies inside the
// window, while the fallback's single bulk-open message gets through on
// a retry.
func degradeDB(t *testing.T) *filterjoin.DB {
	t.Helper()
	model := cost.DefaultModel()
	model.NetByte *= 5000
	db := distDB(t, filterjoin.Config{Model: &model})
	db.SetChaos(&dist.ChaosConfig{OutageEvery: 5, OutageLen: 4, NoEventualDelivery: true},
		dist.RetryPolicy{MaxAttempts: 3, BackoffMs: 1})
	for _, m := range []string{"merge", "nlj", "indexnl", "filterjoin"} {
		db.Optimizer().Disabled[m] = true
	}
	return db
}

// TestFallbackPlannedByItsConsumer: the optimizer plans the primary
// only; the facade, the consumer that degrades, plans the fault-free
// fallback. OptimizeBlock's FetchMatches plan carries none, DB.Plan's
// of the same query carries one.
func TestFallbackPlannedByItsConsumer(t *testing.T) {
	db := degradeDB(t)
	st, err := sql.Parse(distJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sql.BindSelect(db.Catalog(), st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.Optimizer().Fork().OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("FetchMatches") == nil {
		t.Fatalf("test premise broken: plan has no FetchMatches (root %s)", p.Kind)
	}
	if p.Fallback != nil {
		t.Error("OptimizeBlock planned a fallback nobody asked for")
	}
	if fp, err := db.Plan(distJoinQuery); err != nil || fp.Fallback == nil {
		t.Fatalf("DB.Plan must retain a fallback for its FetchMatches plan (err %v)", err)
	}
}

func TestChaosGracefulDegradation(t *testing.T) {
	db := degradeDB(t)
	p, err := db.Plan(distJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("FetchMatches") == nil {
		t.Fatalf("test premise broken: primary plan has no FetchMatches (root %s)", p.Kind)
	}
	if p.Fallback == nil {
		t.Fatal("optimizer did not retain a fault-free fallback plan")
	}
	if p.Fallback.Find("FetchMatches") != nil {
		t.Fatal("fallback plan still contains FetchMatches")
	}

	free := distDB(t, filterjoin.Config{})
	freeRes, err := free.Query(distJoinQuery)
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.RunPlan(p)
	if err != nil {
		t.Fatalf("degradation should save the query, got %v", err)
	}
	if res.DegradedFrom == nil || res.SiteErr == nil {
		t.Fatal("result does not report the degradation")
	}
	if res.SiteErr.Site != 1 {
		t.Fatalf("SiteErr.Site = %d, want 1", res.SiteErr.Site)
	}
	if res.Plan != p.Fallback || res.DegradedFrom != p {
		t.Fatal("Plan/DegradedFrom must point at fallback/primary")
	}
	if got, want := sqlref.Canon(res.Rows), sqlref.Canon(freeRes.Rows); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("degraded rows differ from fault-free:\n%v\n%v", got, want)
	}
	if res.Cost.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", res.Cost.Fallbacks)
	}
	if res.Cost.Retries == 0 {
		t.Fatal("the aborted primary's retries must stay on the bill")
	}
}

// Cost attribution across a degraded run: the abandoned primary's
// operators land in StatsByNode's deferred bucket, the fallback's in the
// tree, and the two together account for every charged unit except the
// Fallbacks surcharge, which is charged at the root, not inside any
// operator.
func TestDegradedCostConservation(t *testing.T) {
	res, err := degradeDB(t).Query(distJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedFrom == nil {
		t.Fatal("workload did not degrade; conservation premise broken")
	}
	byNode, deferred, nDeferred := plan.StatsByNode(res.Plan, res.Stats())
	if nDeferred == 0 {
		t.Fatal("abandoned primary's instrumentation is missing from the profile")
	}
	var sum cost.Counter
	for _, s := range byNode {
		sum.Add(s.Self())
	}
	sum.Add(deferred)
	want := res.Cost
	want.Fallbacks = 0
	if sum != want {
		t.Errorf("sum of Self + deferred = %s, want %s (measured %s)",
			sum.String(), want.String(), res.Cost.String())
	}
}

// The degradation must also surface in EXPLAIN ANALYZE: the rendered
// tree is the fallback that produced the rows, the banner names the
// site error, and the retry/wait counters appear in the measured cost.
func TestChaosExplainAnalyzeDegraded(t *testing.T) {
	db := degradeDB(t)
	out, err := db.ExplainAnalyze(distJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "degraded=plan") {
		t.Fatalf("EXPLAIN ANALYZE misses the degradation banner:\n%s", out)
	}
	if !strings.Contains(out, "site 1 unreachable") {
		t.Fatalf("banner should name the site error:\n%s", out)
	}
	if !strings.Contains(out, "retry=") || !strings.Contains(out, "fb=1") {
		t.Fatalf("measured counters should show the fault surcharge:\n%s", out)
	}
}

// Cancellation propagates through the executor between rows and between
// transport retries.
func TestQueryContextCancellation(t *testing.T) {
	db := distDB(t, filterjoin.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, distJoinQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	dl, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := db.QueryContext(dl, distJoinQuery); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}
