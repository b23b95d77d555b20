package opt

import (
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
)

// only returns an optimizer over the test catalog with every join
// method except the named ones disabled, so candidate counts are exact.
func only(t testing.TB, enabled ...string) *Optimizer {
	t.Helper()
	return onlyOver(buildCat(t), enabled...)
}

// onlyOver is only over a given catalog.
func onlyOver(cat *catalog.Catalog, enabled ...string) *Optimizer {
	o := New(cat, cost.DefaultModel())
	all := []string{"hash", "merge", "nlj", "indexnl", "funcprobe", "funcprobememo", "fetchmatches", "indexaccess"}
	keep := map[string]bool{}
	for _, m := range enabled {
		keep[m] = true
	}
	for _, m := range all {
		if !keep[m] {
			o.Disabled[m] = true
		}
	}
	return o
}

// Exact DP search-space counts on fixed queries: a regression here
// means the optimizer is exploring more (or less) than it used to.

func TestMetricsSingleRelation(t *testing.T) {
	o := only(t, "hash")
	if _, err := o.OptimizeBlock(&query.Block{Rels: []query.RelRef{{Name: "A"}}}); err != nil {
		t.Fatal(err)
	}
	want := Metrics{PlansConsidered: 1, SubsetsExplored: 1, NestedOptimizations: 0}
	if o.Metrics != want {
		t.Errorf("metrics = %+v, want %+v", o.Metrics, want)
	}
}

func TestMetricsTwoRelationHashOnly(t *testing.T) {
	o := only(t, "hash")
	b := &query.Block{
		Rels:  []query.RelRef{{Name: "A"}, {Name: "B"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "A.k"), expr.NewCol(2, "B.k"))},
	}
	if _, err := o.OptimizeBlock(b); err != nil {
		t.Fatal(err)
	}
	// 2 leaves + one hash candidate from each of the two size-1 subsets.
	want := Metrics{PlansConsidered: 4, SubsetsExplored: 3, NestedOptimizations: 0}
	if o.Metrics != want {
		t.Errorf("metrics = %+v, want %+v", o.Metrics, want)
	}
}

func TestMetricsTwoRelationHashAndMerge(t *testing.T) {
	o := only(t, "hash", "merge")
	b := &query.Block{
		Rels:  []query.RelRef{{Name: "A"}, {Name: "B"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "A.k"), expr.NewCol(2, "B.k"))},
	}
	if _, err := o.OptimizeBlock(b); err != nil {
		t.Fatal(err)
	}
	// 2 leaves + {hash, merge} from each of the two size-1 subsets.
	want := Metrics{PlansConsidered: 6, SubsetsExplored: 3, NestedOptimizations: 0}
	if o.Metrics != want {
		t.Errorf("metrics = %+v, want %+v", o.Metrics, want)
	}
}

func TestMetricsNestedViewOptimization(t *testing.T) {
	o := only(t, "hash")
	if _, err := o.OptimizeBlock(&query.Block{Rels: []query.RelRef{{Name: "VA"}}}); err != nil {
		t.Fatal(err)
	}
	// The VA leaf triggers one nested optimization of its defining block
	// (itself a single relation): 1+1 subsets, 1+1 plans.
	want := Metrics{PlansConsidered: 2, SubsetsExplored: 2, NestedOptimizations: 1}
	if o.Metrics != want {
		t.Errorf("metrics = %+v, want %+v", o.Metrics, want)
	}

	// The view leaf is memoized: re-optimizing must not recurse again.
	if _, err := o.OptimizeBlock(&query.Block{Rels: []query.RelRef{{Name: "VA"}}}); err != nil {
		t.Fatal(err)
	}
	want = Metrics{PlansConsidered: 3, SubsetsExplored: 3, NestedOptimizations: 1}
	if o.Metrics != want {
		t.Errorf("metrics after cached re-plan = %+v, want %+v", o.Metrics, want)
	}
}
