package core_test

import (
	"slices"
	"testing"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/opt"
	"filterjoin/internal/sqlref"
)

// TestPrefixProductionSetsCorrect verifies the Limitation-2 relaxation:
// with prefix production sets enabled, plans stay correct and never get
// more expensive than with the limitation in force (the search space is
// a superset).
func TestPrefixProductionSetsCorrect(t *testing.T) {
	cat := fig1DB(t, 20000, 400, 0.2, 0.03)
	model := cost.DefaultModel()

	oFull := opt.New(cat, model)
	oFull.Register(core.NewMethod(core.Options{}))
	pFull, err := oFull.OptimizeBlock(fig1Query())
	if err != nil {
		t.Fatal(err)
	}
	fullRows, _ := runPlan(t, planRunner{pFull.Make})

	mPrefix := core.NewMethod(core.Options{PrefixProductionSets: true})
	oPrefix := opt.New(cat, model)
	oPrefix.Register(mPrefix)
	pPrefix, err := oPrefix.OptimizeBlock(fig1Query())
	if err != nil {
		t.Fatal(err)
	}
	prefixRows, _ := runPlan(t, planRunner{pPrefix.Make})

	if !slices.Equal(fullRows, prefixRows) {
		t.Fatalf("prefix production sets changed results: %d vs %d rows",
			len(prefixRows), len(fullRows))
	}
	if pPrefix.Total(model) > pFull.Total(model)+1e-6 {
		t.Errorf("relaxed search space must not find a worse plan: prefix=%.2f full=%.2f",
			pPrefix.Total(model), pFull.Total(model))
	}
	if mPrefix.Metrics.CandidatesBuilt <= 0 {
		t.Error("no candidates built")
	}
}

// TestPrefixCandidateExecutes forces a query shape where a prefix
// production set is likely attractive (expensive second outer relation)
// and checks the chosen plan executes correctly.
func TestPrefixCandidateExecutes(t *testing.T) {
	cat := fig1DB(t, 30000, 300, 0.5, 0.02)
	model := cost.DefaultModel()

	m := core.NewMethod(core.Options{PrefixProductionSets: true})
	var sawPrefix bool
	m.Trace = func(ch *core.Choice, _ float64) {
		if ch.PrefixProduction {
			sawPrefix = true
		}
	}
	o := opt.New(cat, model)
	o.Register(m)
	p, err := o.OptimizeBlock(fig1Query())
	if err != nil {
		t.Fatal(err)
	}
	if !sawPrefix {
		t.Error("no prefix candidate was ever costed")
	}
	rows, _ := runRows(t, planRunner{p.Make})
	if err := sqlref.Check(cat, fig1Query(), rows); err != nil {
		t.Fatal(err)
	}
}
