package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"filterjoin/internal/value"
)

// key encodes a row as the filter's callers do.
func key(vs ...value.Value) []byte { return value.Row(vs).AppendFullKey(nil) }

func intKey(i int) []byte { return key(value.NewInt(int64(i))) }

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 10)
	for i := 0; i < 1000; i++ {
		f.Add(intKey(i))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain(intKey(i)) {
			t.Fatalf("false negative for %d", i)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		f := New(n, 4+rng.Float64()*8)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(10000)
			f.Add(intKey(keys[i]))
		}
		for _, k := range keys {
			if !f.MayContain(intKey(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeasuredFPRNearTheory(t *testing.T) {
	const n = 5000
	for _, bits := range []float64{4, 8, 12} {
		f := New(n, bits)
		for i := 0; i < n; i++ {
			f.Add(intKey(i))
		}
		falsePos := 0
		const probes = 20000
		for i := 0; i < probes; i++ {
			if f.MayContain(intKey(n + 1 + i)) {
				falsePos++
			}
		}
		measured := float64(falsePos) / probes
		theory := TheoreticalFPR(bits)
		if measured > theory*3+0.002 {
			t.Errorf("bits=%g: measured FPR %.4f far above theory %.4f", bits, measured, theory)
		}
	}
}

func TestTheoreticalFPRMonotone(t *testing.T) {
	prev := 1.0
	for _, bits := range []float64{1, 2, 4, 8, 16} {
		cur := TheoreticalFPR(bits)
		if cur > prev {
			t.Errorf("FPR must not increase with more bits: %g -> %g", prev, cur)
		}
		prev = cur
	}
	if TheoreticalFPR(10) > 0.02 {
		t.Error("10 bits/entry should be ≈1% FPR")
	}
}

func TestSizeBytesScalesWithN(t *testing.T) {
	small := New(100, 10)
	big := New(10000, 10)
	if big.SizeBytes() <= small.SizeBytes() {
		t.Error("size must scale with expected entries")
	}
	// Minimum size floor.
	tiny := New(1, 1)
	if tiny.SizeBytes() < 8 {
		t.Error("minimum 64 bits")
	}
}

func TestDegenerateParamsClamped(t *testing.T) {
	f := New(0, 0)
	if f.K() < 1 {
		t.Error("k must be at least 1")
	}
	f.Add(intKey(1))
	if !f.MayContain(intKey(1)) {
		t.Error("member must be found even in degenerate filter")
	}
}

func TestEstimatedFPR(t *testing.T) {
	f := New(100, 10)
	if f.EstimatedFPR() != 0 {
		t.Error("empty filter has zero FPR")
	}
	for i := 0; i < 100; i++ {
		f.Add(intKey(i))
	}
	got := f.EstimatedFPR()
	if got <= 0 || got > 0.05 {
		t.Errorf("loaded FPR estimate = %g", got)
	}
	if f.Count() != 100 {
		t.Errorf("Count = %d", f.Count())
	}
}

func TestCrossKindKeysMatch(t *testing.T) {
	f := New(10, 10)
	f.Add(intKey(42))
	if !f.MayContain(key(value.NewFloat(42))) {
		t.Error("int 42 and float 42.0 must hash identically")
	}
}

func TestMultiColumnKeys(t *testing.T) {
	f := New(100, 12)
	f.Add(key(value.NewInt(1), value.NewString("a")))
	if !f.MayContain(key(value.NewInt(1), value.NewString("a"))) {
		t.Error("member missing")
	}
	miss := 0
	for i := 0; i < 100; i++ {
		if !f.MayContain(key(value.NewInt(int64(i+10)), value.NewString("b"))) {
			miss++
		}
	}
	if miss < 90 {
		t.Errorf("too many false positives: only %d misses", miss)
	}
}
