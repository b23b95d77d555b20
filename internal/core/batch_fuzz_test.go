package core_test

import (
	"math/rand"
	"testing"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
)

// engineConfigs are the executor batch sizes every differential below
// runs: the first, batch=1, is the row-at-a-time reference the others are
// compared against. 1024 is the production default; 7 and 3 are
// adversarial odd sizes that force partial batches, mid-batch group
// boundaries, and refill paths a large power of two never exercises.
var engineConfigs = []int{1, exec.DefaultBatchSize, 7, 3}

// runPlanBatch executes the plan under the given executor batch size and
// returns the rows in emission order — unlike runPlan it does NOT sort,
// because the batch engine must preserve the row engine's exact output
// sequence, not just its multiset.
func runPlanBatch(t testing.TB, p interface{ Make() exec.Operator }, batch int) ([]string, cost.Counter) {
	t.Helper()
	ctx := exec.NewContext()
	ctx.BatchSize = batch
	rows, err := exec.Drain(ctx, p.Make())
	if err != nil {
		t.Fatalf("run (batch=%d): %v", batch, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += "|"
			}
			s += v.String()
		}
		out[i] = s
	}
	return out, *ctx.Counter
}

// TestBatchRowDifferentialFuzz is the acceptance criterion for the batch
// engine: for random queries under every optimizer configuration the row
// fuzz already covers, each batch size must reproduce the row engine's
// output row for row IN ORDER, with bit-identical counter totals. Any
// double-charge, dropped charge, overpull past a Limit, or reordering
// inside a batched operator shows up here as a diff against batch=1.
func TestBatchRowDifferentialFuzz(t *testing.T) {
	model := cost.DefaultModel()
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		cat, nTables := randCatalog(rng)
		q := randQuery(rng, nTables)

		configs := []struct {
			name     string
			fj       *core.Method
			disabled []string
		}{
			{"plain", nil, nil},
			{"fj-everything", core.NewMethod(core.Options{
				IncludeStored: true, AttrSubsets: true, Bloom: true,
				PrefixProductionSets: true,
			}), nil},
			{"fj-only-hash", core.NewMethod(core.Options{}), []string{"merge", "nlj", "indexnl"}},
		}
		for _, cfg := range configs {
			o := opt.New(cat, model)
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
			wantRows, wantCost := runPlanBatch(t, planRunner{p.Make}, engineConfigs[0])
			for _, batch := range engineConfigs[1:] {
				gotRows, gotCost := runPlanBatch(t, planRunner{p.Make}, batch)
				if !equalStrings(gotRows, wantRows) {
					t.Fatalf("trial %d (%s) batch=%d: rows/order differ from row engine (%d vs %d rows)\nquery: %s\ngot:  %v\nwant: %v",
						trial, cfg.name, batch, len(gotRows), len(wantRows), q, head(gotRows), head(wantRows))
				}
				if gotCost != wantCost {
					t.Fatalf("trial %d (%s) batch=%d: counter totals differ from row engine:\ngot:  %s\nwant: %s\nquery: %s",
						trial, cfg.name, batch, gotCost.String(), wantCost.String(), q)
				}
			}
		}
	}
}

// runPlanChaosBatch is runPlanChaos under a chosen executor batch size,
// unsorted for the ordering assertion. Each run builds a fresh seeded
// transport, so identical send sequences see identical fault schedules.
func runPlanChaosBatch(t *testing.T, p interface{ Make() exec.Operator }, seed int64, batch int) ([]string, cost.Counter) {
	t.Helper()
	ctx := exec.NewContext()
	ctx.BatchSize = batch
	ctx.Net = dist.NewChaosTransport(
		dist.ChaosConfig{Seed: seed, DropRate: 0.6, MaxLatencyMs: 40, OutageEvery: 5, OutageLen: 2},
		dist.RetryPolicy{MaxAttempts: 5, TimeoutMs: 25, BackoffMs: 2},
	)
	rows, err := exec.Drain(ctx, p.Make())
	if err != nil {
		t.Fatalf("chaos run (seed %d, batch=%d) must recover every fault: %v", seed, batch, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += "|"
			}
			s += v.String()
		}
		out[i] = s
	}
	return out, *ctx.Counter
}

// TestBatchChaosDifferentialFuzz replays the frozen chaos schedules
// (seeds 5, 17, 23) against random distributed queries under both
// engines. Every transport Send is issued by a row-only operator that
// pulls its subtree via Next under either engine (see dist package doc),
// so the global send sequence — and with it the injected drops, waits,
// and outages — must land identically: same rows, same order, and
// counter totals equal bit for bit including Retries and WaitMs.
func TestBatchChaosDifferentialFuzz(t *testing.T) {
	base := cost.DefaultModel()
	netHeavy := base
	netHeavy.NetByte *= 5000

	trials := 8
	if testing.Short() {
		trials = 2
	}
	var totalRetries int64
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
			{"fj-everything", base, core.NewMethod(core.Options{
				IncludeStored: true, AttrSubsets: true, Bloom: true,
			}), nil},
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
			for _, seed := range chaosFuzzSeeds {
				// The chaos table is the row reference against the production batch size.
				wantRows, wantCost := runPlanChaosBatch(t, planRunner{p.Make}, seed, 1)
				gotRows, gotCost := runPlanChaosBatch(t, planRunner{p.Make}, seed, exec.DefaultBatchSize)
				if !equalStrings(gotRows, wantRows) {
					t.Fatalf("trial %d (%s) seed %d: rows/order differ under chaos (%d vs %d rows)\nquery: %s",
						trial, cfg.name, seed, len(gotRows), len(wantRows), q)
				}
				if gotCost != wantCost {
					t.Fatalf("trial %d (%s) seed %d: different fault bill:\ngot:  %s\nwant: %s",
						trial, cfg.name, seed, gotCost.String(), wantCost.String())
				}
				totalRetries += gotCost.Retries
			}
		}
	}
	if totalRetries == 0 {
		t.Fatalf("chaos schedules injected no faults; the differential proves nothing")
	}
}
