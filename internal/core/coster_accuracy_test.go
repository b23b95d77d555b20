package core_test

import (
	"math"
	"reflect"
	"testing"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/opt"
	"filterjoin/internal/plancache"
)

// TestCosterInterpolationNearFreshOptimization checks Assumption 1's
// accuracy side: the O(1) interpolated cost of a restricted view must
// stay close to what a fresh nested optimization at that selectivity
// would estimate (the expensive path the cache replaces).
func TestCosterInterpolationNearFreshOptimization(t *testing.T) {
	cat := fig1DB(t, 20000, 400, 0.2, 0.1)
	model := cost.DefaultModel()

	// Build the coster with the default 4 sample classes.
	m4 := core.NewMethod(core.Options{})
	o4 := opt.New(cat, model)
	o4.Register(m4)
	if _, err := o4.OptimizeBlock(fig1Query()); err != nil {
		t.Fatal(err)
	}
	costers := m4.Costers()
	if len(costers) != 1 {
		t.Fatalf("costers = %d", len(costers))
	}
	vc4 := costers[0]

	// Reference: a dense coster (many classes) approximates the true
	// per-selectivity optimization curve.
	dense := core.NewMethod(core.Options{
		SamplePoints: []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0},
	})
	oD := opt.New(cat, model)
	oD.Register(dense)
	if _, err := oD.OptimizeBlock(fig1Query()); err != nil {
		t.Fatal(err)
	}
	vcDense := dense.Costers()[0]

	for _, sel := range []float64{0.05, 0.15, 0.35, 0.75} {
		got := model.TotalEstimate(vc4.Cost(sel))
		want := model.TotalEstimate(vcDense.Cost(sel))
		if want <= 0 {
			t.Fatalf("dense coster returned zero cost at sel=%g", sel)
		}
		relErr := math.Abs(got-want) / want
		if relErr > 0.5 {
			t.Errorf("sel=%.2f: 4-class interpolation %.1f vs dense %.1f (%.0f%% off)",
				sel, got, want, relErr*100)
		}
	}

	// Cardinality agreement should be much tighter (the line fit).
	for _, sel := range []float64{0.05, 0.35, 0.75} {
		got, want := vc4.Rows(sel), vcDense.Rows(sel)
		if want > 0 && math.Abs(got-want)/want > 0.15 {
			t.Errorf("sel=%.2f: rows %g vs %g", sel, got, want)
		}
	}
}

// TestCosterKnob verifies the paper's "performance knob": more sample
// classes cost proportionally more nested optimizations.
func TestCosterKnob(t *testing.T) {
	cat := fig1DB(t, 8000, 200, 0.2, 0.1)
	model := cost.DefaultModel()

	run := func(points []float64) int64 {
		m := core.NewMethod(core.Options{SamplePoints: points})
		o := opt.New(cat, model)
		o.Register(m)
		if _, err := o.OptimizeBlock(fig1Query()); err != nil {
			t.Fatal(err)
		}
		return o.Metrics.NestedOptimizations
	}
	two := run([]float64{0.1, 1.0})
	eight := run([]float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0})
	if eight <= two {
		t.Errorf("more classes must cost more nested optimizations: %d vs %d", eight, two)
	}
	// Both stay small constants relative to the join search.
	if eight > 20 {
		t.Errorf("nested optimizations should stay bounded: %d", eight)
	}
}

// TestSamplePointsNormalised: SamplePoints given shuffled, duplicated
// and partly out of range class and cost exactly like the ascending
// grid — plancache.Classify assumes ascending, so unsorted points would
// put every selectivity in class 0 — and the default stays the default.
func TestSamplePointsNormalised(t *testing.T) {
	sorted := []float64{0.02, 0.25, 1.0}
	shuffled := []float64{1.0, 0.25, 0.02, 0.25, 0, 1.5}
	given := append([]float64(nil), shuffled...)

	grid := core.NewMethod(core.Options{SamplePoints: shuffled}).Opts.Grid()
	if !reflect.DeepEqual(grid, sorted) {
		t.Fatalf("grid = %v, want %v", grid, sorted)
	}
	if !reflect.DeepEqual(shuffled, given) {
		t.Errorf("NewMethod reordered the caller's slice: %v", shuffled)
	}
	for want, sel := range []float64{0.01, 0.1, 0.5} {
		if got := plancache.Classify(sel, grid); got != want {
			t.Errorf("sel %.2f classed %d, want %d", sel, got, want)
		}
	}

	cat := fig1DB(t, 8000, 200, 0.2, 0.1)
	coster := func(points []float64) (*core.ViewCoster, float64) {
		m := core.NewMethod(core.Options{SamplePoints: points})
		o := opt.New(cat, cost.DefaultModel())
		o.Register(m)
		p, err := o.OptimizeBlock(fig1Query())
		if err != nil {
			t.Fatal(err)
		}
		return m.Costers()[0], p.Total(o.Model)
	}
	vcS, costS := coster(sorted)
	vcU, costU := coster(shuffled)
	if !reflect.DeepEqual(vcU, vcS) || costU != costS {
		t.Errorf("shuffled points cost differently: plan %g vs %g, coster %+v vs %+v", costU, costS, vcU, vcS)
	}

	def := core.NewMethod(core.Options{})
	if def.Opts.SamplePoints != nil || !reflect.DeepEqual(def.Opts.Grid(), core.DefaultSamplePoints) {
		t.Errorf("default grid = %v (SamplePoints %v)", def.Opts.Grid(), def.Opts.SamplePoints)
	}
}
