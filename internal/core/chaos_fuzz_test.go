package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/opt"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// chaosFuzzSeeds are the fixed fault schedules CI replays: three
// arbitrary but frozen seeds, so a regression in the transport or in an
// operator's fault handling reproduces identically on every machine.
var chaosFuzzSeeds = []int64{5, 17, 23}

// randDistCatalog is randCatalog's distributed sibling: a local hub
// table T0, one or two remote tables R1.. homed at distinct sites (each
// indexed on k, so every remote strategy — whole-stream shipment,
// semi-join restriction, fetch-matches — is available), and a remote
// grouped view over R1.
func randDistCatalog(rng *rand.Rand) (*catalog.Catalog, int) {
	cat := catalog.New()
	keyRange := 15 + rng.Intn(40)
	hub := storage.NewTable("T0", schema.New(
		schema.Column{Table: "T0", Name: "k", Type: value.KindInt},
		schema.Column{Table: "T0", Name: "v", Type: value.KindInt},
	))
	for r, rows := 0, 10+rng.Intn(80); r < rows; r++ {
		hub.MustInsert(value.NewInt(int64(rng.Intn(keyRange))), value.NewInt(int64(rng.Intn(100))))
	}
	if rng.Intn(2) == 0 {
		if _, err := hub.CreateIndex("T0_k", []int{0}); err != nil {
			panic(err)
		}
	}
	cat.AddTable(hub)

	nRemote := 1 + rng.Intn(2)
	for i := 1; i <= nRemote; i++ {
		name := fmt.Sprintf("R%d", i)
		t := storage.NewTable(name, schema.New(
			schema.Column{Table: name, Name: "k", Type: value.KindInt},
			schema.Column{Table: name, Name: "v", Type: value.KindInt},
		))
		for r, rows := 0, 20+rng.Intn(100); r < rows; r++ {
			t.MustInsert(value.NewInt(int64(rng.Intn(keyRange))), value.NewInt(int64(rng.Intn(100))))
		}
		if _, err := t.CreateIndex(name+"_k", []int{0}); err != nil {
			panic(err)
		}
		cat.AddRemoteTable(t, i)
	}
	cat.AddRemoteView("RGV", &query.Block{
		Rels:    []query.RelRef{{Name: "R1"}},
		GroupBy: []int{0},
		Aggs: []expr.AggSpec{
			{Kind: expr.AggCount, Name: "n"},
			{Kind: expr.AggSum, Arg: expr.NewCol(1, "R1.v"), Name: "s"},
		},
	}, 1)
	return cat, nRemote
}

// randDistQuery joins T0 against a random subset of the remote
// relations (always at least one, sometimes the remote view) on k.
func randDistQuery(rng *rand.Rand, nRemote int) *query.Block {
	b := &query.Block{}
	use := []string{"T0", fmt.Sprintf("R%d", 1+rng.Intn(nRemote))}
	if nRemote > 1 && use[1] != "R2" && rng.Intn(2) == 0 {
		use = append(use, "R2")
	}
	if rng.Intn(3) > 0 {
		use = append(use, "RGV")
	}
	off := 0
	offsets := make([]int, len(use))
	for i, name := range use {
		offsets[i] = off
		if name == "RGV" {
			off += 3
		} else {
			off += 2
		}
	}
	for i, name := range use {
		b.Rels = append(b.Rels, query.RelRef{Name: name})
		if i > 0 {
			b.Preds = append(b.Preds, expr.Eq(
				expr.NewCol(offsets[0], "T0.k"),
				expr.NewCol(offsets[i], name+".k"),
			))
		}
	}
	if rng.Intn(2) == 0 {
		b.Preds = append(b.Preds, expr.NewCmp(expr.LT,
			expr.NewCol(1, "T0.v"), expr.Int(int64(20+rng.Intn(60)))))
	}
	return b
}

// runPlanChaos executes the plan over the seeded fault-injecting
// transport (eventual delivery on, so every run must succeed).
func runPlanChaos(t *testing.T, p interface{ Make() exec.Operator }, seed int64) ([]value.Row, cost.Counter) {
	t.Helper()
	ctx := exec.NewContext()
	ctx.Net = dist.NewChaosTransport(
		dist.ChaosConfig{Seed: seed, DropRate: 0.6, MaxLatencyMs: 40, OutageEvery: 5, OutageLen: 2},
		dist.RetryPolicy{MaxAttempts: 5, TimeoutMs: 25, BackoffMs: 2},
	)
	rows, err := exec.Drain(ctx, p.Make())
	if err != nil {
		t.Fatalf("chaos run (seed %d) must recover every fault: %v", seed, err)
	}
	return rows, *ctx.Counter
}

// TestChaosDifferentialFuzz is the acceptance criterion for the fault
// injection layer: for random distributed queries under several
// optimizer configurations, the fault-free run and every fixed fault
// schedule yield SQL's answer (sqlref; recovered by retry, never
// silently wrong), and replaying a schedule reproduces the exact
// counter totals.
func TestChaosDifferentialFuzz(t *testing.T) {
	base := cost.DefaultModel()
	netHeavy := base
	netHeavy.NetByte *= 5000 // bytes dominate: prefer fetch-matches where it applies

	trials := 12
	if testing.Short() {
		trials = 3
	}
	var totalRetries, totalWait int64
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 13))
		cat, nRemote := randDistCatalog(rng)
		q := randDistQuery(rng, nRemote)

		configs := []struct {
			name     string
			model    cost.Model
			fj       *core.Method
			disabled []string
		}{
			{"plain", base, nil, nil},
			{"fj-everything", base, core.NewMethod(core.Options{
				IncludeStored: true, AttrSubsets: true, Bloom: true,
			}), nil},
			{"ship-only", base, nil, []string{"filterjoin", "fetchmatches"}},
			{"fetch-preferred", netHeavy, core.NewMethod(core.Options{}), nil},
		}
		for _, cfg := range configs {
			o := opt.New(cat, cfg.model)
			for _, d := range cfg.disabled {
				o.Disabled[d] = true
			}
			if cfg.fj != nil {
				o.Register(cfg.fj)
			}
			p, err := o.OptimizeBlock(q)
			if err != nil {
				t.Fatalf("trial %d (%s): optimize: %v\nquery: %s", trial, cfg.name, err, q)
			}
			rows, free := runRows(t, planRunner{p.Make})
			if err := sqlref.Check(cat, q, rows); err != nil {
				t.Fatalf("trial %d (%s): %v\nquery: %s", trial, cfg.name, err, q)
			}
			for _, seed := range chaosFuzzSeeds {
				got, c1 := runPlanChaos(t, planRunner{p.Make}, seed)
				if err := sqlref.Check(cat, q, got); err != nil {
					t.Fatalf("trial %d (%s) seed %d: chaos run: %v\nquery: %s", trial, cfg.name, seed, err, q)
				}
				// Replaying the schedule must reproduce the totals bit for bit.
				_, c2 := runPlanChaos(t, planRunner{p.Make}, seed)
				if c1 != c2 {
					t.Fatalf("trial %d (%s) seed %d: same schedule, different totals:\n%s\n%s",
						trial, cfg.name, seed, c1.String(), c2.String())
				}
				// Faults only ever add cost: retried messages and waits on
				// top of the fault-free bill, local work untouched.
				if c1.NetMsgs != free.NetMsgs+c1.Retries {
					t.Fatalf("trial %d (%s) seed %d: NetMsgs %d != fault-free %d + retries %d",
						trial, cfg.name, seed, c1.NetMsgs, free.NetMsgs, c1.Retries)
				}
				if c1.PageReads != free.PageReads || c1.CPUTuples != free.CPUTuples || c1.FnCalls != free.FnCalls {
					t.Fatalf("trial %d (%s) seed %d: chaos changed local work: %s vs %s",
						trial, cfg.name, seed, c1.String(), free.String())
				}
				totalRetries += c1.Retries
				totalWait += c1.WaitMs
			}
		}
	}
	if totalRetries == 0 || totalWait == 0 {
		t.Fatalf("fuzz injected no faults at all (retries=%d wait=%d); the schedules are dead", totalRetries, totalWait)
	}
}
