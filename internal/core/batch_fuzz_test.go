package core_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/value"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz_counters.golden from the morsel-size-1 run")

// fuzzGoldenPath pins, for every plan of the two corpora below, the row
// sequence (as a hash) and every cost.Counter field. It was recorded at
// commit 0b085c9 by the row-at-a-time engine (row Next methods,
// BatchSize 1) that has since been deleted, so passing it means the one
// NextBatch path still bills what that implementation billed — not
// merely that it agrees with itself at another morsel size.
const fuzzGoldenPath = "testdata/fuzz_counters.golden"

// morselSizes are the executor morsel sizes every plan is run at. 1024
// is the production default; 1 degenerates every pull to a single row;
// 7 and 3 are adversarial odd sizes that force partial batches,
// mid-batch group boundaries, and refill paths a large power of two
// never exercises.
var morselSizes = []int{1, 3, 7, exec.DefaultBatchSize}

// loadFuzzGolden reads the "key<TAB>fingerprint" lines of the golden.
func loadFuzzGolden(t *testing.T) map[string]string {
	t.Helper()
	golden := map[string]string{}
	f, err := os.Open(fuzzGoldenPath)
	if err != nil {
		if *update {
			return golden
		}
		t.Fatalf("%v (record it with -update)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, fp, ok := strings.Cut(sc.Text(), "\t"); ok {
			golden[key] = fp
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// saveFuzzGolden writes the golden back, sorted by key.
func saveFuzzGolden(t *testing.T, golden map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(golden))
	for k := range golden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, golden[k])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fuzzGoldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runFingerprint executes the plan at the given morsel size over the
// given transport (nil = the free network) and condenses the outcome to
// one line: row count, a hash of the rows IN EMISSION ORDER — the
// executor must preserve the exact output sequence, not just the
// multiset — and every counter field.
func runFingerprint(t *testing.T, p *plan.Node, morsel int, net exec.Transport) (string, cost.Counter, []value.Row) {
	t.Helper()
	ctx := exec.NewContext()
	ctx.BatchSize = morsel
	ctx.Net = net
	rows, err := exec.Drain(ctx, p.Make())
	if err != nil {
		t.Fatalf("run (morsel=%d): %v", morsel, err)
	}
	return fingerprint(rows, *ctx.Counter), *ctx.Counter, rows
}

// fingerprint is runFingerprint's line for a finished run's rows and bill.
func fingerprint(rows []value.Row, c cost.Counter) string {
	h := fnv.New64a()
	for _, r := range rows {
		for _, v := range r {
			h.Write([]byte(v.String()))
			h.Write([]byte{'|'})
		}
		h.Write([]byte{'\n'})
	}
	type allFields cost.Counter // no String method: %+v prints every field, zero or not
	return fmt.Sprintf("rows=%d hash=%016x counter=%+v", len(rows), h.Sum64(), allFields(c))
}

// checkMorselInvariance runs fp's plan at every morsel size and
// requires each run's fingerprint to equal the golden entry for key and
// its rows to be SQL's answer to fp's block; under -update it records
// the morsel-size-1 run instead. It returns the counter of the last run.
func checkMorselInvariance(t *testing.T, golden map[string]string, key string, fp fuzzPlan, net func() exec.Transport) cost.Counter {
	t.Helper()
	if *update {
		line, c, _ := runFingerprint(t, fp.plan, 1, net())
		golden[key] = line
		return c
	}
	want, ok := golden[key]
	if !ok {
		t.Fatalf("%s: no entry in %s (record it with -update)", key, fuzzGoldenPath)
	}
	var last cost.Counter
	var rows []value.Row
	for _, morsel := range morselSizes {
		var got string
		got, last, rows = runFingerprint(t, fp.plan, morsel, net())
		if got != want {
			t.Fatalf("%s morsel=%d: rows, order or counter totals differ from the recorded row engine:\ngot:  %s\nwant: %s\nquery: %s",
				key, morsel, got, want, fp.query)
		}
	}
	if err := sqlref.Check(fp.cat, fp.block, rows); err != nil {
		t.Fatalf("%s: %v\nquery: %s", key, err, fp.query)
	}
	return last
}

func freeNet() exec.Transport { return nil }

// TestBatchRowDifferentialFuzz is the acceptance criterion for the
// executor's morsel-size invariance: for random queries under every
// optimizer configuration the row fuzz already covers, each morsel size
// must reproduce the recorded row engine's output row for row IN ORDER,
// with bit-identical counter totals, and those rows must be SQL's
// answer (sqlref). Any double-charge, dropped charge, overpull past a
// Limit, or reordering inside a batched operator shows up here as a
// diff against the golden.
func TestBatchRowDifferentialFuzz(t *testing.T) {
	golden := loadFuzzGolden(t)
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for _, fp := range rowCorpus(t, trials) {
		checkMorselInvariance(t, golden, fp.key, fp, freeNet)
	}
	if *update {
		saveFuzzGolden(t, golden)
	}
}

// fuzzPlan is one plan of a fuzz corpus: its golden key, the query it
// answers, the catalog it reads, and the plan. A planned entry also
// keeps its block and the configuration that planned it; a hand-built
// one has neither.
type fuzzPlan struct {
	key, query string
	cat        *catalog.Catalog
	plan       *plan.Node
	block      *query.Block
	optimize   planFunc
}

// planFunc plans a block with a fresh optimizer of one configuration
// and returns the plan with the optimizer's counters.
type planFunc func(*query.Block) (*plan.Node, opt.Metrics, error)

// planner returns the planFunc that plans over cat under model with
// the named methods disabled and, when fj is not nil, a fresh Filter
// Join method with its options registered.
func planner(cat *catalog.Catalog, model cost.Model, fj *core.Options, disabled ...string) planFunc {
	return func(b *query.Block) (*plan.Node, opt.Metrics, error) {
		o := opt.New(cat, model)
		for _, d := range disabled {
			o.Disabled[d] = true
		}
		if fj != nil {
			o.Register(core.NewMethod(*fj))
		}
		p, err := o.OptimizeBlock(b)
		return p, o.Metrics, err
	}
}

// planned plans b with optimize into a corpus entry.
func planned(t *testing.T, key string, cat *catalog.Catalog, b *query.Block, optimize planFunc) fuzzPlan {
	t.Helper()
	p, _, err := optimize(b)
	if err != nil {
		t.Fatalf("%s: optimize: %v\nquery: %s", key, err, b)
	}
	return fuzzPlan{key, b.String(), cat, p, b, optimize}
}

// rowCorpus plans the first trials random local queries under every
// optimizer configuration the row fuzz covers.
func rowCorpus(t *testing.T, trials int) []fuzzPlan {
	t.Helper()
	model := cost.DefaultModel()
	var out []fuzzPlan
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		cat, nTables := randCatalog(rng, 0)
		q := randQuery(rng, nTables)

		configs := []struct {
			name     string
			fj       *core.Options
			disabled []string
		}{
			{"plain", nil, nil},
			{"fj-everything", &core.Options{
				IncludeStored: true, AttrSubsets: true, Bloom: true,
				PrefixProductionSets: true,
			}, nil},
			{"fj-only-hash", &core.Options{}, []string{"merge", "nlj", "indexnl"}},
		}
		for _, cfg := range configs {
			key := fmt.Sprintf("row/trial=%02d/%s", trial, cfg.name)
			out = append(out, planned(t, key, cat, q, planner(cat, model, cfg.fj, cfg.disabled...)))
		}
	}
	return out
}

// distCorpus plans the first trials random distributed queries under
// the configurations the chaos morsel fuzz covers.
func distCorpus(t *testing.T, trials int) []fuzzPlan {
	t.Helper()
	base := cost.DefaultModel()
	netHeavy := base
	netHeavy.NetByte *= 5000
	var out []fuzzPlan
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 13))
		cat, nRemote := randDistCatalog(rng)
		q := randDistQuery(rng, nRemote)

		configs := []struct {
			name  string
			model cost.Model
			fj    *core.Options
		}{
			{"fj-everything", base, &core.Options{
				IncludeStored: true, AttrSubsets: true, Bloom: true,
			}},
			{"fetch-preferred", netHeavy, &core.Options{}},
		}
		for _, cfg := range configs {
			key := fmt.Sprintf("chaos/trial=%02d/%s", trial, cfg.name)
			out = append(out, planned(t, key, cat, q, planner(cat, cfg.model, cfg.fj)))
		}
	}
	return out
}

// TestBatchChaosDifferentialFuzz replays the frozen chaos schedules
// (seeds 5, 17, 23) against random distributed queries at every morsel
// size. Every transport Send is issued from a row step whose operator
// reads its subtree one row at a time whatever the morsel size (see the
// dist package doc), so the global send sequence — and with it the
// injected drops, waits, and outages — must land identically: same
// rows, same order, and counter totals equal to the recorded row
// engine's bit for bit, including Retries and WaitMs, and rows that are
// SQL's answer (sqlref). Each run builds a fresh seeded transport, so
// identical send sequences see identical fault schedules.
func TestBatchChaosDifferentialFuzz(t *testing.T) {
	golden := loadFuzzGolden(t)
	trials := 8
	if testing.Short() {
		trials = 2
	}
	var totalRetries int64
	for _, fp := range distCorpus(t, trials) {
		for _, seed := range chaosFuzzSeeds {
			chaosNet := func() exec.Transport {
				return dist.NewChaosTransport(
					dist.ChaosConfig{Seed: seed, DropRate: 0.6, MaxLatencyMs: 40, OutageEvery: 5, OutageLen: 2},
					dist.RetryPolicy{MaxAttempts: 5, TimeoutMs: 25, BackoffMs: 2},
				)
			}
			key := fmt.Sprintf("%s/seed=%02d", fp.key, seed)
			c := checkMorselInvariance(t, golden, key, fp, chaosNet)
			totalRetries += c.Retries
		}
	}
	if totalRetries == 0 {
		t.Fatalf("chaos schedules injected no faults; the differential proves nothing")
	}
	if *update {
		saveFuzzGolden(t, golden)
	}
}
