package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"filterjoin/internal/expr"
)

// Refinement must preserve the histogram invariants — sorted bounds,
// non-negative bucket counts summing to the total, distinct counts
// bounded by bucket counts — for any input histogram, probe point, and
// target fraction.
func TestRefineKeepsInvariantsProperty(t *testing.T) {
	ops := []expr.CmpOp{expr.EQ, expr.LT, expr.LE, expr.GT, expr.GE}
	f := func(seed int64, x, frac float64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(400)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Round(r.Float64()*200) / 4
		}
		h := BuildHistogram(vs, 1+r.Intn(24))
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("base histogram broken: %v", err)
		}
		frac = math.Abs(math.Mod(frac, 1))
		x = math.Mod(math.Abs(x), 60)
		for _, op := range ops {
			ref := h.RefineCmp(op, x, frac)
			if ref == nil {
				continue // out of range or unsupported: caller keeps the base
			}
			if err := ref.CheckInvariants(); err != nil {
				t.Logf("RefineCmp(%v, %g, %g): %v", op, x, frac, err)
				return false
			}
			if ref.total != h.total {
				t.Logf("RefineCmp(%v, %g, %g): total %d -> %d", op, x, frac, h.total, ref.total)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// RefineLess must move LessFraction(x) to (approximately) the observed
// fraction while leaving the base histogram untouched.
func TestRefineLessMovesFraction(t *testing.T) {
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i)
	}
	h := BuildHistogram(vs, 16)
	before := h.LessFraction(300)
	ref := h.RefineLess(300, 0.9)
	if ref == nil {
		t.Fatal("in-range refinement returned nil")
	}
	if got := ref.LessFraction(300); math.Abs(got-0.9) > 0.02 {
		t.Errorf("refined LessFraction(300) = %g, want ≈ 0.9", got)
	}
	if got := h.LessFraction(300); got != before {
		t.Errorf("base histogram mutated: LessFraction(300) %g -> %g", before, got)
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Feedback application is copy-on-write: the base stats (and any Clone
// sharing its histograms and SelFix map) must never observe a mutation,
// even while concurrent readers estimate through them. Run with -race.
func TestFeedbackApplyCopyOnWrite(t *testing.T) {
	vs := make([]float64, 500)
	for i := range vs {
		vs[i] = float64(i % 50)
	}
	base := &RelStats{
		Rows: 500,
		Cols: []ColStats{{
			Distinct: 50, HasRange: true, Min: 0, Max: 49,
			Hist: BuildHistogram(vs, 8),
		}},
	}
	shared := base.Clone() // shares the histogram and (nil) SelFix

	pred := expr.NewCmp(expr.LT, expr.Col{Idx: 0, Name: "a"}, expr.Float(10))
	fb := NewFeedback()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = Selectivity(pred, shared)
				_ = shared.Cols[0].Hist.LessFraction(10)
			}
		}
	}()

	for i := 0; i < 50; i++ {
		sel := 0.1 + float64(i%8)*0.1
		fb.Observe(PredObservation{
			Key: PredKey(pred), Sel: sel,
			Col: 0, Op: expr.LT, X: 10,
		})
		out := fb.Apply(base)
		if out == base {
			t.Fatal("Apply returned the base for a non-empty feedback store")
		}
		if v, ok := out.SelFix[PredKey(pred)]; !ok || math.Abs(v-sel) > 1e-9 {
			t.Fatalf("applied SelFix = (%g, %t), want %g", v, ok, sel)
		}
		if out.Cols[0].Hist == base.Cols[0].Hist {
			t.Fatal("refined histogram aliases the base histogram")
		}
		if err := out.Cols[0].Hist.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if base.SelFix != nil {
		t.Error("base SelFix map was published by Apply")
	}
	if got := Selectivity(pred, shared); math.Abs(got-0.2) > 0.05 {
		t.Errorf("shared clone's estimate drifted: sel = %g, want ≈ 0.2", got)
	}
}

// Observe's gating: tiny corrections are dropped, and the version moves
// exactly when the store changes.
func TestFeedbackObserveGating(t *testing.T) {
	fb := NewFeedback()
	v0 := fb.Version()
	if !fb.Observe(PredObservation{Key: "p", Sel: 0.5, Col: -1}) {
		t.Fatal("first observation must store")
	}
	if fb.Version() == v0 {
		t.Fatal("storing must bump the version")
	}
	v1 := fb.Version()
	if fb.Observe(PredObservation{Key: "p", Sel: 0.52, Col: -1}) {
		t.Error("a <10% correction must be dropped")
	}
	if fb.Version() != v1 {
		t.Error("dropped observations must not move the version")
	}
	if !fb.Observe(PredObservation{Key: "p", Sel: 0.9, Col: -1}) {
		t.Error("a >=10% correction must store")
	}
	fb.Reset()
	if !fb.Empty() {
		t.Error("Reset must empty the store")
	}
	if fb.Version() == v1 {
		t.Error("Reset must move the version so cached applications drop")
	}
}

// Apply must be a function of the store's contents: histogram
// refinements on one column do not commute, so applying them in map
// iteration order gave several outcomes for one set of observations.
func TestFeedbackApplyDeterministic(t *testing.T) {
	vs := make([]float64, 500)
	for i := range vs {
		vs[i] = float64(i % 50)
	}
	base := &RelStats{
		Rows: 500,
		Cols: []ColStats{{
			Distinct: 50, HasRange: true, Min: 0, Max: 49,
			Hist: BuildHistogram(vs, 8),
		}},
	}
	obs := []PredObservation{
		{Key: "a < 10", Sel: 0.6, Col: 0, Op: expr.LT, X: 10},
		{Key: "a < 30", Sel: 0.7, Col: 0, Op: expr.LT, X: 30},
		{Key: "a > 20", Sel: 0.1, Col: 0, Op: expr.GT, X: 20},
	}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		fb := NewFeedback()
		for _, o := range obs {
			fb.Observe(o)
		}
		seen[fmt.Sprintf("%+v", *fb.Apply(base).Cols[0].Hist)] = true
	}
	if len(seen) != 1 {
		t.Fatalf("200 applications of the same three observations produced %d distinct histograms, want 1", len(seen))
	}
}
