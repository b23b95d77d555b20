package value

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"
)

// TestValueSize pins the row cost: every stored, joined and projected
// column is one Value.
func TestValueSize(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s > 32 {
		t.Fatalf("Value is %d bytes, want <= 32", s)
	}
}

// oldValue is the five-field layout Value had before the payload fields
// were folded into one word, with the bodies of its accessors and
// Compare kept as the oracle: orderings feed goldens and cost counters,
// so the new layout must reproduce them. The oracle's numeric Compare is
// exact (math/big), the rule Compare follows since ints stopped being
// rounded to floats. The key encoding is FuzzAppendKey's, against
// Compare.
type oldValue struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

func (v oldValue) asFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	}
	return 0, false
}

func (v oldValue) bigFloat() *big.Float {
	if v.kind == KindInt {
		return new(big.Float).SetInt64(v.i)
	}
	return new(big.Float).SetFloat64(v.f)
}

func (v oldValue) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.b)
	}
	return "?"
}

func oldCompare(a, b oldValue) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	af, aNum := a.asFloat()
	bf, bNum := b.asFloat()
	if aNum && bNum {
		if af != af || bf != bf {
			return 0 // a NaN compares equal to every number
		}
		// Numbers compare exactly: math/big holds every int64 and
		// float64 without rounding.
		return a.bigFloat().Cmp(b.bigFloat())
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// layoutPair is one value built through both layouts.
type layoutPair struct {
	got Value
	old oldValue
}

func pairInt(i int64) layoutPair { return layoutPair{NewInt(i), oldValue{kind: KindInt, i: i}} }
func pairFloat(f float64) layoutPair {
	return layoutPair{NewFloat(f), oldValue{kind: KindFloat, f: f}}
}
func pairString(s string) layoutPair {
	return layoutPair{NewString(s), oldValue{kind: KindString, s: s}}
}
func pairBool(b bool) layoutPair { return layoutPair{NewBool(b), oldValue{kind: KindBool, b: b}} }

func layoutPairs(rng *rand.Rand) []layoutPair {
	ps := []layoutPair{
		{Null, oldValue{}},
		pairBool(true), pairBool(false),
		pairString(""), pairString("i42|"), pairString("héllo"),
		pairInt(0), pairInt(-1), pairInt(math.MinInt64), pairInt(math.MaxInt64), pairInt(1<<53 + 1),
		pairFloat(math.NaN()), pairFloat(0), pairFloat(math.Copysign(0, -1)),
		pairFloat(math.Inf(1)), pairFloat(math.Inf(-1)),
		pairFloat(1 << 53), pairFloat(1<<53 + 2), pairFloat(-(1 << 63)), pairFloat(1 << 63),
		pairFloat(1e300), pairFloat(-1e300), pairFloat(math.SmallestNonzeroFloat64), pairFloat(2.5),
	}
	for i := 0; i < 400; i++ {
		switch rng.Intn(5) {
		case 0:
			ps = append(ps, pairInt(rng.Int63()-rng.Int63()))
		case 1:
			ps = append(ps, pairInt(int64(rng.Intn(21)-10)))
		case 2:
			ps = append(ps, pairFloat(math.Float64frombits(rng.Uint64())))
		case 3:
			ps = append(ps, pairFloat(float64(rng.Intn(21)-10)/2))
		case 4:
			ps = append(ps, pairString(strconv.Itoa(rng.Intn(30))))
		}
	}
	return ps
}

// sameFloat treats any NaN as equal to any NaN and tells -0 from +0.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func TestLayoutMatchesOldStruct(t *testing.T) {
	ps := layoutPairs(rand.New(rand.NewSource(14)))
	for _, p := range ps {
		v, o := p.got, p.old
		if v.Kind() != o.kind {
			t.Fatalf("%v: Kind %v, old %v", o, v.Kind(), o.kind)
		}
		switch o.kind {
		case KindInt:
			if v.Int() != o.i {
				t.Errorf("Int %d, old %d", v.Int(), o.i)
			}
		case KindFloat:
			if !sameFloat(v.Float(), o.f) {
				t.Errorf("Float %v, old %v", v.Float(), o.f)
			}
		case KindString:
			if v.Str() != o.s {
				t.Errorf("Str %q, old %q", v.Str(), o.s)
			}
		case KindBool:
			if v.Bool() != o.b {
				t.Errorf("Bool %v, old %v", v.Bool(), o.b)
			}
		}
		gf, gok := v.AsFloat()
		of, ook := o.asFloat()
		if gok != ook || !sameFloat(gf, of) {
			t.Errorf("%v: AsFloat (%v,%v), old (%v,%v)", o, gf, gok, of, ook)
		}
		if v.String() != o.String() {
			t.Errorf("String %q, old %q", v.String(), o.String())
		}
	}
	for _, a := range ps {
		for _, b := range ps {
			if got, want := Compare(a.got, b.got), oldCompare(a.old, b.old); got != want {
				t.Fatalf("Compare(%v, %v) = %d, old %d", a.old, b.old, got, want)
			}
		}
	}
}
