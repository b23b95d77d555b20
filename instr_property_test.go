package filterjoin_test

import (
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
	"filterjoin/internal/query"
)

// The conservation property behind EXPLAIN ANALYZE: every cost unit the
// execution charges is attributed to exactly one operator. For any plan
// the optimizer emits, the per-operator exclusive ("Self") counter
// deltas must sum to the execution context's root counter — across join
// methods, re-opened inners, Filter Joins with deferred sub-planning,
// remote shipping, and function probes.
// conservationOpts tunes one conservation run beyond the base knobs:
// join methods to disable (to force a particular strategy, e.g.
// FetchMatches) and a transport factory (to run the plan over the
// fault-injecting network — conservation must hold on faulty runs too,
// with retries and backoff waits attributed to the operator that sent).
type conservationOpts struct {
	disabled []string
	net      func() exec.Transport
	require  string // plan node kind that must be present, "" for any
}

func checkConservation(t *testing.T, name string, cat *catalog.Catalog, b *query.Block, model cost.Model, fjOpts *core.Options, batch int, co conservationOpts) cost.Counter {
	t.Helper()
	o := opt.New(cat, model)
	o.BatchSize = batch
	for _, m := range co.disabled {
		o.Disabled[m] = true
	}
	if fjOpts != nil {
		o.Register(core.NewMethod(*fjOpts))
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatalf("%s: optimize: %v", name, err)
	}
	if co.require != "" && p.Find(co.require) == nil {
		t.Fatalf("%s: plan does not contain required %s node", name, co.require)
	}
	ctx := exec.NewContext()
	ctx.BatchSize = batch
	if co.net != nil {
		ctx.Net = co.net()
	}
	if _, err := exec.Drain(ctx, p.Make()); err != nil {
		t.Fatalf("%s: execute: %v", name, err)
	}
	if co.net != nil && ctx.Counter.Retries == 0 {
		t.Fatalf("%s: chaos run injected no retries; the workload is not exercising the transport", name)
	}
	ops := ctx.OperatorStats()
	if len(ops) == 0 {
		t.Fatalf("%s: no operator stats collected", name)
	}
	var sum cost.Counter
	var rootIncl cost.Counter
	for _, s := range ops {
		self := s.Self()
		// Attribution must never go negative: an operator whose Self
		// delta dips below zero is double-charging its parent.
		if self.PageReads < 0 || self.PageWrites < 0 || self.CPUTuples < 0 ||
			self.NetBytes < 0 || self.NetMsgs < 0 || self.FnCalls < 0 ||
			self.Retries < 0 || self.WaitMs < 0 || self.Fallbacks < 0 {
			t.Errorf("%s: operator %s charged negative Self %s", name, s.Label, self.String())
		}
		sum.Add(self)
		if s.Tag == p {
			rootIncl = s.Inclusive
		}
	}
	// The runtime complement of the costcharge analyzer: executing a
	// real workload is never free. A zero root counter means some
	// operator did row work without charging ctx.Counter.
	if ctx.Counter.IsZero() {
		t.Errorf("%s: execution charged nothing; an operator is doing row work for free", name)
	}
	if sum != *ctx.Counter {
		t.Errorf("%s: sum of per-operator Self = %s, want root counter %s (plan:\n%s)",
			name, sum.String(), ctx.Counter.String(), p.Kind)
	}
	if rootIncl != *ctx.Counter {
		t.Errorf("%s: root operator Inclusive = %s, want root counter %s",
			name, rootIncl.String(), ctx.Counter.String())
	}
	return *ctx.Counter
}

func TestCostAttributionConservation(t *testing.T) {
	fig1, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		t.Fatal(err)
	}
	distCat, err := datagen.DistCatalog(datagen.DefaultDist())
	if err != nil {
		t.Fatal(err)
	}
	udrCat, _, err := datagen.UDRCatalog(datagen.DefaultUDR())
	if err != nil {
		t.Fatal(err)
	}

	base := cost.DefaultModel()
	netHeavy := base
	netHeavy.NetByte *= 25
	netHeavy.NetMsg *= 25

	fjConfigs := map[string]*core.Options{
		"nofj":     nil,
		"fj":       {},
		"fj-bloom": {Bloom: true, AttrSubsets: true},
		"fj-all":   {Bloom: true, AttrSubsets: true, IncludeStored: true, PrefixProductionSets: true},
	}

	// chaos runs the same plans over the fault-injecting transport: the
	// schedule below forces drops, timeouts, and outages, all recovered
	// by retry, and all attributed to the operator whose send retried.
	// The drop rate is aggressive so even one-message workloads (a
	// single view shipment) deterministically hit at least one retry;
	// the eventual-delivery cap still guarantees recovery.
	chaos := func() exec.Transport {
		return dist.NewChaosTransport(
			dist.ChaosConfig{Seed: 11, DropRate: 0.9, MaxLatencyMs: 30, OutageEvery: 4, OutageLen: 1},
			dist.RetryPolicy{MaxAttempts: 6, TimeoutMs: 20, BackoffMs: 2},
		)
	}

	type workload struct {
		name  string
		cat   *catalog.Catalog
		block func() *query.Block
		model cost.Model
		co    conservationOpts
	}
	workloads := []workload{
		{"fig1", fig1, datagen.Fig1Query, base, conservationOpts{}},
		{"dist-view", distCat, datagen.DistQuery, netHeavy, conservationOpts{}},
		// The whole-stream shipment must appear in the plan tree itself
		// (not buried in a Filter Join's deferred sub-plan) so the Ship
		// operator is directly under the instrumentation shim.
		{"dist-ship", distCat, datagen.DistBaseQuery, netHeavy,
			conservationOpts{disabled: []string{"filterjoin", "fetchmatches"}, require: "ShipScan"}},
		{"dist-base", distCat, datagen.DistBaseQuery, netHeavy, conservationOpts{}},
		{"udr", udrCat, datagen.UDRQuery, base, conservationOpts{}},
		// Force the per-row remote strategy so the FetchMatches operator
		// itself is under the instrumentation shim.
		{"dist-fetchmatches", distCat, datagen.DistBaseQuery, netHeavy,
			conservationOpts{disabled: []string{"hash", "merge", "nlj", "indexnl", "filterjoin"}, require: "FetchMatches"}},
		{"dist-view/chaos", distCat, datagen.DistQuery, netHeavy,
			conservationOpts{net: chaos}},
		{"dist-ship/chaos", distCat, datagen.DistBaseQuery, netHeavy,
			conservationOpts{disabled: []string{"filterjoin", "fetchmatches"}, net: chaos, require: "ShipScan"}},
		{"dist-fetchmatches/chaos", distCat, datagen.DistBaseQuery, netHeavy,
			conservationOpts{disabled: []string{"hash", "merge", "nlj", "indexnl", "filterjoin"}, net: chaos, require: "FetchMatches"}},
	}
	for _, w := range workloads {
		for cfgName, fjOpts := range fjConfigs {
			// Each cell runs at morsel sizes 1 and 1024: attribution must be
			// conserved at both AND land on the same root totals —
			// re-opened inners, shipped streams, and fetch-matches probes
			// included, faulty transport and all.
			name := w.name + "/" + cfgName
			fjOpts, w := fjOpts, w
			t.Run(name, func(t *testing.T) {
				oneTotal := checkConservation(t, name, w.cat, w.block(), w.model, fjOpts, 1, w.co)
				batchTotal := checkConservation(t, name+"/batch", w.cat, w.block(), w.model, fjOpts, exec.DefaultBatchSize, w.co)
				if batchTotal != oneTotal {
					t.Errorf("%s: total at morsel size 1024 %s differs from morsel size 1 %s",
						name, batchTotal.String(), oneTotal.String())
				}
			})
		}
	}
}

// The same property through the public facade, including a query whose
// nested-loops join re-opens its inner and a UNION combining two arms.
func TestCostAttributionConservationFacade(t *testing.T) {
	db := quickstartDB(t)
	queries := []string{
		quickstartQuery,
		`SELECT E.eid FROM Emp E WHERE E.age < 25`,
		`SELECT E.did, V.avgsal FROM Emp E, DepAvgSal V WHERE E.did = V.did AND E.sal > V.avgsal`,
	}
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var sum cost.Counter
		for _, s := range res.Stats() {
			sum.Add(s.Self())
		}
		if sum != res.Cost {
			t.Errorf("query %q: sum of Self = %s, want %s", q, sum.String(), res.Cost.String())
		}
	}
}
