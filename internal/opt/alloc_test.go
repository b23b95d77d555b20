package opt_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/opt"
	"filterjoin/internal/query"
)

// TestPlanAllocBudget is the planner's allocation regression gate: a
// warm OptimizeBlock (statistics, view leaf and view coster cached) of
// the Fig 1 query and of the largest plan_cold shape, with the Filter
// Join registered, must not allocate more than the checked-in
// testdata/alloc_budget.json allows. The budgets sit about 1.5x over
// the measured figures: a pruned candidate that is built again — a
// plan node, a key string, a remapped residual — shows up as thousands.
func TestPlanAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("alloc budget: %v", err)
	}
	var budget map[string]float64
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("alloc budget: %v", err)
	}
	cat, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]func() *query.Block{
		"Fig1":           datagen.Fig1Query,
		"SevenRelations": func() *query.Block { return datagen.ColdShape(5, true) },
	} {
		want, ok := budget[name]
		if !ok {
			t.Fatalf("no budget entry for %s", name)
		}
		o := opt.New(cat, cost.DefaultModel())
		o.Register(core.NewMethod(core.Options{}))
		block := b()
		if _, err := o.OptimizeBlock(block); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := o.OptimizeBlock(block); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per warm OptimizeBlock, budget %.0f", name, got, want)
		if got > want {
			t.Errorf("%s: a warm OptimizeBlock allocates %.0f, budget %.0f (testdata/alloc_budget.json)", name, got, want)
		}
	}
}

// TestPlanBytesBudget is TestPlanAllocBudget's twin in bytes: a warm
// OptimizeBlock of the largest plan_cold shape, Filter Join registered,
// must stay under budgetKiB of allocation, about 1.5x the measured
// figure. It was 1 631 KiB when every DP extension built its own
// JoinStep, predicate split and pre-admission orderings.
func TestPlanBytesBudget(t *testing.T) {
	const runs, budgetKiB = 50, 1482
	cat, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		t.Fatal(err)
	}
	o := opt.New(cat, cost.DefaultModel())
	o.Register(core.NewMethod(core.Options{}))
	block := datagen.ColdShape(5, true)
	if _, err := o.OptimizeBlock(block); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := o.OptimizeBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("SevenRelations: %.0f KiB per warm OptimizeBlock, budget %d KiB", perRun, budgetKiB)
	if perRun > budgetKiB {
		t.Errorf("SevenRelations: a warm OptimizeBlock allocates %.0f KiB, budget %d KiB", perRun, budgetKiB)
	}
}
