package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// randCatalog builds a random star of base tables around a shared key
// domain, plus one grouped view, for differential testing. Each stored
// value is NULL with probability nullFrac. At 0 no extra number is
// drawn: the corpora fuzz_counters.golden pins depend on every draw.
func randCatalog(rng *rand.Rand, nullFrac float64) (*catalog.Catalog, int) {
	cat := catalog.New()
	nTables := 2 + rng.Intn(2)
	keyRange := 15 + rng.Intn(40)
	for i := 0; i < nTables; i++ {
		name := fmt.Sprintf("T%d", i)
		s := schema.New(
			schema.Column{Table: name, Name: "k", Type: value.KindInt},
			schema.Column{Table: name, Name: "v", Type: value.KindInt},
		)
		t := storage.NewTable(name, s)
		rows := 10 + rng.Intn(120)
		for r := 0; r < rows; r++ {
			row := value.Row{value.NewInt(int64(rng.Intn(keyRange))), value.NewInt(int64(rng.Intn(100)))}
			for j := range row {
				if nullFrac > 0 && rng.Float64() < nullFrac {
					row[j] = value.Null
				}
			}
			t.MustInsert(row...)
		}
		if rng.Intn(2) == 0 {
			if _, err := t.CreateIndex(name+"_k", []int{0}); err != nil {
				panic(err)
			}
		}
		cat.AddTable(t)
	}
	// A grouped view over T0: (k, COUNT, SUM(v)).
	cat.AddView("GV", &query.Block{
		Rels:    []query.RelRef{{Name: "T0"}},
		GroupBy: []int{0},
		Aggs: []expr.AggSpec{
			{Kind: expr.AggCount, Name: "n"},
			{Kind: expr.AggSum, Arg: expr.NewCol(1, "T0.v"), Name: "s"},
		},
	})
	return cat, nTables
}

// randQuery joins a random subset of the tables (always including the
// view with some probability) on k, with random local predicates.
func randQuery(rng *rand.Rand, nTables int) *query.Block {
	b := &query.Block{}
	use := []string{"T0"}
	for i := 1; i < nTables; i++ {
		if rng.Intn(2) == 0 {
			use = append(use, fmt.Sprintf("T%d", i))
		}
	}
	withView := rng.Intn(3) > 0
	if withView {
		use = append(use, "GV")
	}
	for _, name := range use {
		b.Rels = append(b.Rels, query.RelRef{Name: name})
	}
	// Every relation has (k, ...) at its local position 0; chain them.
	off := 0
	offsets := make([]int, len(use))
	for i, name := range use {
		offsets[i] = off
		if name == "GV" {
			off += 3
		} else {
			off += 2
		}
	}
	for i := 1; i < len(use); i++ {
		b.Preds = append(b.Preds, expr.Eq(
			expr.NewCol(offsets[0], use[0]+".k"),
			expr.NewCol(offsets[i], use[i]+".k"),
		))
	}
	// Random local predicate on T0.v.
	if rng.Intn(2) == 0 {
		b.Preds = append(b.Preds, expr.NewCmp(expr.LT,
			expr.NewCol(1, "T0.v"), expr.Int(int64(20+rng.Intn(60)))))
	}
	// Random local predicate on the view's count output.
	if withView && rng.Intn(2) == 0 {
		b.Preds = append(b.Preds, expr.NewCmp(expr.GE,
			expr.NewCol(offsets[len(use)-1]+1, "GV.n"), expr.Int(1+int64(rng.Intn(3)))))
	}
	// Random ORDER BY over T0's columns (these queries have no projection,
	// so output positions coincide with the block layout). This exercises
	// the interesting-order memo and sort elision under every config.
	if rng.Intn(2) == 0 {
		b.OrderBy = append(b.OrderBy, query.OrderItem{Col: 0, Desc: rng.Intn(2) == 0})
		if rng.Intn(2) == 0 {
			b.OrderBy = append(b.OrderBy, query.OrderItem{Col: 1, Desc: rng.Intn(2) == 0})
		}
	}
	return b
}

// differentialConfig is one way a differential test plans a query: an
// optimizer configuration, or a forced join order.
type differentialConfig struct {
	name     string
	fj       *core.Options
	disabled []string
	noOrder  bool
	order    []int // nil: the DP chooses
}

// optimizerConfigs are the optimizer configurations every random query
// runs under; n is unused.
func optimizerConfigs(int) []differentialConfig {
	everything := &core.Options{IncludeStored: true, AttrSubsets: true, Bloom: true, PrefixProductionSets: true}
	return []differentialConfig{
		{name: "plain"},
		{name: "fj", fj: &core.Options{}},
		{name: "fj-everything", fj: everything},
		{name: "fj-only-hash", fj: &core.Options{}, disabled: []string{"merge", "nlj", "indexnl"}},
		{name: "fj-no-orderprops", fj: &core.Options{}, noOrder: true},
		{name: "merge-only", disabled: []string{"hash", "nlj", "indexnl"}},
		{name: "nlj-only", disabled: []string{"hash", "merge", "indexnl"}},
	}
}

// forcedOrderConfigs forces every join order of n relations, with the
// Filter Join registered.
func forcedOrderConfigs(n int) []differentialConfig {
	var cfgs []differentialConfig
	var permute func(order []int)
	permute = func(order []int) {
		if len(order) == n {
			cfgs = append(cfgs, differentialConfig{name: fmt.Sprintf("order=%v", order), fj: &core.Options{}, order: order})
		}
		for r := 0; r < n; r++ {
			if !slices.Contains(order, r) {
				permute(append(slices.Clip(order), r))
			}
		}
	}
	permute(nil)
	return cfgs
}

// plan plans q over cat under the configuration.
func (c differentialConfig) plan(cat *catalog.Catalog, q *query.Block) (*plan.Node, error) {
	o := opt.New(cat, cost.DefaultModel())
	o.DisableOrderProps = c.noOrder
	for _, d := range c.disabled {
		o.Disabled[d] = true
	}
	if c.fj != nil {
		o.Register(core.NewMethod(*c.fj))
	}
	if c.order != nil {
		return o.OptimizeBlockWithOrder(q, c.order)
	}
	return o.OptimizeBlock(q)
}

// runDifferential plans each query of the random corpus under every
// configuration configs returns for its relation count, runs it, and
// requires SQL's answer as sqlref computes it, so a costing, plumbing or
// operator bug that every configuration shares fails too. The second
// corpus stores a quarter of its values as NULL.
func runDifferential(t *testing.T, configs func(n int) []differentialConfig) {
	t.Helper()
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for _, nullFrac := range []float64{0, 0.25} {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			cat, nTables := randCatalog(rng, nullFrac)
			q := randQuery(rng, nTables)
			for _, cfg := range configs(len(q.Rels)) {
				p, err := cfg.plan(cat, q)
				if err != nil {
					t.Fatalf("nulls=%v trial %d (%s): optimize: %v\nquery: %s", nullFrac, trial, cfg.name, err, q)
				}
				rows, _ := runRows(t, planRunner{p.Make})
				if err := sqlref.Check(cat, q, rows); err != nil {
					t.Fatalf("nulls=%v trial %d (%s): %v\nquery: %s", nullFrac, trial, cfg.name, err, q)
				}
			}
		}
	}
}

// TestDifferentialRandomQueries is the repository's main correctness
// fuzz: the random corpus under every optimizerConfigs entry.
func TestDifferentialRandomQueries(t *testing.T) { runDifferential(t, optimizerConfigs) }

// TestDifferentialForcedOrders runs the same corpus with every join
// order forced, so a plan the DP never picks is checked too.
func TestDifferentialForcedOrders(t *testing.T) { runDifferential(t, forcedOrderConfigs) }

// FuzzQueryVsReference drives randCatalog and randQuery from a seed and
// a NULL fraction: the engine's rows must equal sqlref's under the
// default configuration, with the Filter Join disabled, and with prefix
// production sets.
func FuzzQueryVsReference(f *testing.F) {
	f.Add(int64(0), 0.0)
	f.Add(int64(7919), 0.25)
	f.Add(int64(31), 0.9)
	cfgs := []differentialConfig{
		{name: "default", fj: &core.Options{}},
		{name: "DisableFilterJoin"},
		{name: "PrefixProductionSets", fj: &core.Options{PrefixProductionSets: true}},
	}
	f.Fuzz(func(t *testing.T, seed int64, nullFrac float64) {
		if !(nullFrac >= 0 && nullFrac <= 1) {
			nullFrac = 0
		}
		rng := rand.New(rand.NewSource(seed))
		cat, nTables := randCatalog(rng, nullFrac)
		q := randQuery(rng, nTables)
		for _, cfg := range cfgs {
			p, err := cfg.plan(cat, q)
			if err != nil {
				t.Fatalf("%s: optimize: %v\nquery: %s", cfg.name, err, q)
			}
			rows, _ := runRows(t, planRunner{p.Make})
			if err := sqlref.Check(cat, q, rows); err != nil {
				t.Fatalf("%s: %v\nquery: %s", cfg.name, err, q)
			}
		}
	})
}
