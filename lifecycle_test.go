package filterjoin_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"filterjoin"
	"filterjoin/internal/datagen"
	"filterjoin/internal/dist"
	"filterjoin/internal/sqlref"
)

// countdown is a caller context whose Err reports context.Canceled from
// its n-th call on (never when n <= 0). calls counts every poll.
type countdown struct {
	context.Context
	n, calls int
}

func (c *countdown) Err() error {
	c.calls++
	if c.n > 0 && c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// distViewDB loads the distributed example's universe (datagen seed 7,
// scaled down) through the facade: local Customer, remote Orders and
// the remote OrderTotals view at site 1.
func distViewDB(t *testing.T) *filterjoin.DB {
	t.Helper()
	cat, err := datagen.DistCatalog(datagen.DistParams{NCustomers: 500, NOrders: 5000, SegFrac: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db := filterjoin.Open(filterjoin.Config{})
	for name, site := range map[string]int{"Customer": 0, "Orders": 1} {
		e, err := cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if site == 0 {
			db.RegisterTable(e.Table)
		} else {
			db.RegisterRemoteTable(e.Table, site)
		}
	}
	if err := db.RegisterRemoteView("OrderTotals", `
		SELECT Orders.ckey, COUNT(*) AS norders, SUM(Orders.price) AS total
		FROM Orders GROUP BY Orders.ckey`, 1); err != nil {
		t.Fatal(err)
	}
	return db
}

// distViewQuery is the distributed_explain_analyze golden's query.
const distViewQuery = `
	SELECT C.ckey, T.norders, T.total FROM Customer C, OrderTotals T
	WHERE C.ckey = T.ckey AND C.segment = 1`

// everyKth is the fault schedule under which each site refuses every
// k-th message (k >= 1) and nothing is retried.
func everyKth(k int) (*dist.ChaosConfig, dist.RetryPolicy) {
	c := &dist.ChaosConfig{OutageEvery: k - 1, OutageLen: 1, NoEventualDelivery: true}
	if k == 1 {
		c = &dist.ChaosConfig{DropRate: 1, NoEventualDelivery: true}
	}
	return c, dist.RetryPolicy{MaxAttempts: 1}
}

// fetchDB is degradeDB on the free network: fetching matches is the
// primary strategy and bulk shipment its retained fault-free fallback.
func fetchDB(t *testing.T) *filterjoin.DB {
	db := degradeDB(t)
	db.SetChaos(nil, dist.RetryPolicy{})
	return db
}

// TestLifecycleSweepFacade is the lifecycle sweep end to end: on a DB
// with the default config, statements are cancelled at polls spread
// over a clean run's cancellation polls (internal/core's sweep takes
// every one), and faulted at each of their transport sends in turn. A
// cancelled statement returns context.Canceled; a faulted one either
// degrades to the fault-free rows or returns the *dist.SiteError. After
// every aborted statement the same DB answers the query again with a
// fresh engine's rows.
func TestLifecycleSweepFacade(t *testing.T) {
	degraded := 0
	for _, tc := range []struct {
		name  string
		open  func(*testing.T) *filterjoin.DB
		query string
	}{
		{"fig1", quickstartDB, quickstartQuery},
		{"distributed", distViewDB, distViewQuery},
		{"fetch-matches", fetchDB, distJoinQuery},
	} {
		fresh, err := tc.open(t).Query(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := fmt.Sprint(sqlref.Canon(fresh.Rows))
		db := tc.open(t)
		answers := func(what string) {
			t.Helper()
			res, err := db.Query(tc.query)
			if err != nil {
				t.Fatalf("%s %s: next query: %v", tc.name, what, err)
			}
			if got := fmt.Sprint(sqlref.Canon(res.Rows)); got != want || res.DegradedFrom != nil {
				t.Fatalf("%s %s: next query differs from a fresh engine's rows (degraded=%v)", tc.name, what, res.DegradedFrom != nil)
			}
		}
		answers("warm-up")

		counter := &countdown{Context: context.Background()}
		clean, err := db.QueryContext(counter, tc.query)
		if err != nil {
			t.Fatalf("%s: clean run: %v", tc.name, err)
		}
		for n := 1; n <= counter.calls; n += max(1, counter.calls/64) {
			what := fmt.Sprintf("cancelled at poll %d/%d", n, counter.calls)
			if _, err := db.QueryContext(&countdown{Context: context.Background(), n: n}, tc.query); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s %s: returned %v, want context.Canceled", tc.name, what, err)
			}
			answers(what)
		}

		sends := int(clean.Cost.NetMsgs) // the free network charges one message per send
		for k := 1; k <= sends; k++ {
			what := fmt.Sprintf("every send %d/%d failed", k, sends)
			db.SetChaos(everyKth(k))
			res, err := db.Query(tc.query)
			db.SetChaos(nil, dist.RetryPolicy{})
			var se *dist.SiteError
			switch {
			case err == nil && res.DegradedFrom != nil:
				if got := fmt.Sprint(sqlref.Canon(res.Rows)); got != want {
					t.Fatalf("%s %s: degraded to rows that differ from the fault-free run", tc.name, what)
				}
				degraded++
			case errors.As(err, &se):
			default:
				t.Fatalf("%s %s: returned %v (degraded=%v), want a degraded result or a *dist.SiteError", tc.name, what, err, err == nil && res.DegradedFrom != nil)
			}
			answers(what)
		}
		t.Logf("%s: %d cancellation polls, %d sends", tc.name, counter.calls, sends)
	}
	if degraded == 0 {
		t.Fatal("no faulted statement degraded; the fallback path went unexercised")
	}
}
