package filterjoin_test

// The benchmark harness: one sub-benchmark per experiment in the
// reproduction suite (EXPERIMENTS.md maps them to the paper's tables and
// figures), plus engine micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// An experiment sub-benchmark executes the full regeneration of its
// artifact per iteration.

import (
	"testing"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/experiments"
	"filterjoin/internal/expr"
	"filterjoin/internal/opt"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// BenchmarkExperiments regenerates each registered experiment's report,
// one sub-benchmark per id.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := e.Run()
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if len(r.Rows) == 0 {
					b.Fatalf("%s produced no rows", e.ID)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Engine micro-benchmarks
// ---------------------------------------------------------------------

// BenchmarkOptimizeFig1 measures one cost-based optimization of the
// Fig 1 query with the Filter Join available (coster cache warm — the
// steady state the paper's Assumption 1 targets).
func BenchmarkOptimizeFig1(b *testing.B) {
	cat, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		b.Fatal(err)
	}
	model := cost.DefaultModel()
	o := opt.New(cat, model)
	o.Register(core.NewMethod(core.Options{}))
	if _, err := o.OptimizeBlock(datagen.Fig1Query()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.OptimizeBlock(datagen.Fig1Query()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeFig1NoFilterJoin is the baseline for the previous
// benchmark: the same optimization without the method registered.
func BenchmarkOptimizeFig1NoFilterJoin(b *testing.B) {
	cat, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		b.Fatal(err)
	}
	o := opt.New(cat, cost.DefaultModel())
	if _, err := o.OptimizeBlock(datagen.Fig1Query()); err != nil {
		b.Fatal(err) // warm statistics and view-leaf caches
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.OptimizeBlock(datagen.Fig1Query()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeSevenRelations measures one warm optimization of the
// largest plan_cold shape — Emp, five Dept aliases and DepAvgSal — with
// the Filter Join available: the DP's constant factor a cache miss pays.
func BenchmarkOptimizeSevenRelations(b *testing.B) {
	cat, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		b.Fatal(err)
	}
	o := opt.New(cat, cost.DefaultModel())
	o.Register(core.NewMethod(core.Options{}))
	if _, err := o.OptimizeBlock(datagen.ColdShape(5, true)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.OptimizeBlock(datagen.ColdShape(5, true)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteFilterJoinPlan measures executing the Fig 1 query with
// the Filter Join plan, end to end.
func BenchmarkExecuteFilterJoinPlan(b *testing.B) {
	p := datagen.DefaultFig1()
	p.BigFrac = 0.05
	cat, err := datagen.Fig1Catalog(p)
	if err != nil {
		b.Fatal(err)
	}
	o := opt.New(cat, cost.DefaultModel())
	o.Register(core.NewMethod(core.Options{}))
	pl, err := o.OptimizeBlock(datagen.Fig1Query())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := exec.NewContext()
		if _, err := exec.Count(ctx, pl.Make()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Pre-sizing micro-benchmarks (run with -benchmem): hinted operators use
// the optimizer's cardinality estimate to pre-size their hash tables and
// row buffers, trading the estimate for fewer map growths. Compare the
// allocs/op columns of the Hinted/Unhinted pairs.
// ---------------------------------------------------------------------

func benchTable(b *testing.B, name string, nRows, keyRange int) *storage.Table {
	b.Helper()
	s := schema.New(
		schema.Column{Table: name, Name: "k", Type: value.KindInt},
		schema.Column{Table: name, Name: "v", Type: value.KindInt},
	)
	t := storage.NewTable(name, s)
	for i := 0; i < nRows; i++ {
		t.MustInsert(value.NewInt(int64(i%keyRange)), value.NewInt(int64(i)))
	}
	return t
}

func benchHashJoin(b *testing.B, hint int) {
	lt := benchTable(b, "l", 20000, 5000)
	rt := benchTable(b, "r", 20000, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := exec.NewHashJoinProbeFirst(exec.NewTableScan(lt, ""), exec.NewTableScan(rt, ""), []int{0}, []int{0}, nil)
		j.BuildSizeHint = hint
		ctx := exec.NewContext()
		if _, err := exec.Count(ctx, j); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinUnhinted(b *testing.B) { benchHashJoin(b, 0) }
func BenchmarkHashJoinHinted(b *testing.B)   { benchHashJoin(b, 5000) }

func benchGroupBy(b *testing.B, hint int) {
	t := benchTable(b, "t", 50000, 10000)
	aggs := []expr.AggSpec{
		{Kind: expr.AggCount, Name: "n"},
		{Kind: expr.AggSum, Arg: expr.NewCol(1, "t.v"), Name: "s"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := exec.NewGroupBy(exec.NewTableScan(t, ""), []int{0}, aggs)
		g.SizeHint = hint
		ctx := exec.NewContext()
		if _, err := exec.Count(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupByUnhinted(b *testing.B) { benchGroupBy(b, 0) }
func BenchmarkGroupByHinted(b *testing.B)   { benchGroupBy(b, 10000) }

func benchBuildKeySet(b *testing.B, hint int) {
	t := benchTable(b, "t", 50000, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := exec.NewContext()
		if _, err := exec.BuildKeySetSized(ctx, exec.NewTableScan(t, ""), []int{0}, hint); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildKeySetUnhinted(b *testing.B) { benchBuildKeySet(b, 0) }
func BenchmarkBuildKeySetHinted(b *testing.B)   { benchBuildKeySet(b, 20000) }

// BenchmarkExecuteFullComputationPlan is the baseline executor run: the
// same query with the Filter Join disabled.
func BenchmarkExecuteFullComputationPlan(b *testing.B) {
	p := datagen.DefaultFig1()
	p.BigFrac = 0.05
	cat, err := datagen.Fig1Catalog(p)
	if err != nil {
		b.Fatal(err)
	}
	o := opt.New(cat, cost.DefaultModel())
	pl, err := o.OptimizeBlock(datagen.Fig1Query())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := exec.NewContext()
		if _, err := exec.Count(ctx, pl.Make()); err != nil {
			b.Fatal(err)
		}
	}
}
