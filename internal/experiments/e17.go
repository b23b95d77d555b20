package experiments

import (
	"errors"
	"fmt"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// E17Seeds are the fault schedules the robustness experiment replays;
// frozen so the report is reproducible across machines.
var E17Seeds = []int64{5, 17, 23}

// robustCatalog is a two-site workload tuned so both remote strategies
// are live: a small local Customer hub and a remote Orders table whose
// key domain is much wider than the hub's (8 of 60 keys match), so
// fetching matches by key ships a fraction of what whole-table
// shipment would.
func robustCatalog() *catalog.Catalog {
	cat := catalog.New()
	cust := storage.NewTable("Customer", schema.New(
		schema.Column{Table: "Customer", Name: "ckey", Type: value.KindInt},
		schema.Column{Table: "Customer", Name: "segment", Type: value.KindInt},
	))
	for i := 0; i < 8; i++ {
		cust.MustInsert(value.NewInt(int64(i+1)), value.NewInt(int64(i%3)))
	}
	cat.AddTable(cust)

	orders := storage.NewTable("Orders", schema.New(
		schema.Column{Table: "Orders", Name: "okey", Type: value.KindInt},
		schema.Column{Table: "Orders", Name: "ckey", Type: value.KindInt},
		schema.Column{Table: "Orders", Name: "qty", Type: value.KindInt},
	))
	for i := 0; i < 240; i++ {
		orders.MustInsert(
			value.NewInt(int64(i)),
			value.NewInt(int64(i%60+1)),
			value.NewInt(int64(i%7)),
		)
	}
	if _, err := orders.CreateIndex("orders_ckey", []int{1}); err != nil {
		panic(err)
	}
	cat.AddRemoteTable(orders, 1)
	return cat
}

// robustQuery joins the hub against remote Orders with a local residual.
func robustQuery() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{{Name: "Customer"}, {Name: "Orders"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "Customer.ckey"), expr.NewCol(3, "Orders.ckey")),
			expr.NewCmp(expr.LT, expr.NewCol(4, "Orders.qty"), expr.Int(3)),
		},
	}
}

// runOnce drains the plan in a fresh context, optionally over a
// transport, applying the facade's degradation rule: a *dist.SiteError
// with a retained fallback reruns the fallback in the same context.
func runOnce(p *plan.Node, net exec.Transport) (rows int, c cost.Counter, degraded bool, err error) {
	ctx := exec.NewContext()
	ctx.Net = net
	out, err := exec.Drain(ctx, p.Make())
	var se *dist.SiteError
	if err != nil && errors.As(err, &se) && p.Fallback != nil {
		ctx.Counter.Fallbacks++
		degraded = true
		out, err = exec.Drain(ctx, p.Fallback.Make())
	}
	return len(out), *ctx.Counter, degraded, err
}

// E17Robustness measures the fault-injection substrate: for each remote
// strategy, every frozen fault schedule must reproduce the fault-free
// rows exactly (recovered by retry), with the surcharge visible in the
// retry/wait counters; and with eventual delivery off, a site outage
// longer than the retry budget must degrade to the retained fault-free
// fallback plan rather than fail the query.
func E17Robustness() (*Report, error) {
	model := cost.DefaultModel()
	model.NetByte *= 5000 // bytes dominate: fetch-matches beats bulk shipment
	cat := robustCatalog()

	r := &Report{
		ID:    "E17",
		Title: "Fault-injected transport: retry recovery and graceful degradation",
		Header: []string{"strategy", "seed", "rows", "netM", "retries",
			"waitMs", "fb", "parity"},
	}

	strategies := []struct {
		name     string
		disabled []string
	}{
		{"ship-whole", []string{"filterjoin", "fetchmatches"}},
		{"fetch-matches", []string{"hash", "merge", "nlj", "indexnl", "filterjoin"}},
	}
	for _, s := range strategies {
		o := optimizer(cat, model, nil, s.disabled...)
		p, err := o.OptimizeBlock(robustQuery())
		if err != nil {
			return nil, fmt.Errorf("E17 %s: optimize: %w", s.name, err)
		}
		freeRows, freeCost, _, err := runOnce(p, nil)
		if err != nil {
			return nil, fmt.Errorf("E17 %s: fault-free run: %w", s.name, err)
		}
		r.AddRow(s.name, "-", d(int64(freeRows)), d(freeCost.NetMsgs), "0", "0", "0", "-")
		for _, seed := range E17Seeds {
			net := dist.NewChaosTransport(
				dist.ChaosConfig{Seed: seed, DropRate: 0.6, MaxLatencyMs: 40, OutageEvery: 5, OutageLen: 2},
				dist.RetryPolicy{MaxAttempts: 5, TimeoutMs: 25, BackoffMs: 2},
			)
			rows, c, _, err := runOnce(p, net)
			if err != nil {
				return nil, fmt.Errorf("E17 %s seed %d: %w", s.name, seed, err)
			}
			parity := rows == freeRows &&
				c.NetMsgs == freeCost.NetMsgs+c.Retries &&
				c.PageReads == freeCost.PageReads && c.CPUTuples == freeCost.CPUTuples
			if !parity {
				return nil, fmt.Errorf("E17 %s seed %d: parity broken: %s vs fault-free %s",
					s.name, seed, c.String(), freeCost.String())
			}
			r.AddRow(s.name, d(seed), d(int64(rows)), d(c.NetMsgs), d(c.Retries),
				d(c.WaitMs), d(c.Fallbacks), yesNo(parity))
		}
	}

	// Graceful degradation: fetch-matches primary with its bulk-shipment
	// fallback retained, under an outage window longer than the retry
	// budget and no eventual-delivery cap. The per-outer-row message
	// stream dies mid-join; the rerun fallback must still produce the
	// fault-free rows.
	o := optimizer(cat, model, nil, "merge", "nlj", "indexnl", "filterjoin")
	p, err := o.OptimizeBlock(robustQuery())
	if err != nil {
		return nil, fmt.Errorf("E17 degrade: optimize: %w", err)
	}
	p.Fallback = o.Fallback(robustQuery())
	if p.Find("FetchMatches") == nil || p.Fallback == nil {
		return nil, fmt.Errorf("E17 degrade: primary/fallback premise broken (root %s)", p.Kind)
	}
	freeRows, _, _, err := runOnce(p, nil)
	if err != nil {
		return nil, fmt.Errorf("E17 degrade: fault-free run: %w", err)
	}
	net := dist.NewChaosTransport(
		dist.ChaosConfig{OutageEvery: 5, OutageLen: 4, NoEventualDelivery: true},
		dist.RetryPolicy{MaxAttempts: 3, BackoffMs: 1},
	)
	rows, c, degraded, err := runOnce(p, net)
	if err != nil {
		return nil, fmt.Errorf("E17 degrade: %w", err)
	}
	if !degraded || c.Fallbacks != 1 {
		return nil, fmt.Errorf("E17 degrade: outage did not trigger the fallback (fb=%d)", c.Fallbacks)
	}
	parity := rows == freeRows
	if !parity {
		return nil, fmt.Errorf("E17 degrade: fallback produced %d rows, fault-free %d", rows, freeRows)
	}
	r.AddRow("degrade-to-fallback", "-", d(int64(rows)), d(c.NetMsgs), d(c.Retries),
		d(c.WaitMs), d(c.Fallbacks), yesNo(parity))

	r.AddNote("parity: chaos rows identical to fault-free, local work identical, and netM = fault-free netM + retries (every failed attempt is on the bill)")
	r.AddNote("degrade-to-fallback runs with eventual delivery off and an outage longer than the retry budget: the fetch-matches primary aborts with a site error and the retained bulk-shipment fallback answers, charged to the same counter (fb=1)")
	return r, nil
}
