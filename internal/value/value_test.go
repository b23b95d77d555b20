package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindWidth(t *testing.T) {
	if KindInt.Width() != 8 || KindFloat.Width() != 8 {
		t.Error("numeric widths should be 8")
	}
	if KindBool.Width() != 1 {
		t.Error("bool width should be 1")
	}
	if KindString.Width() != 16 {
		t.Error("string nominal width should be 16")
	}
	if KindNull.Width() < 1 {
		t.Error("null width must be positive")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Error("NewInt round trip failed")
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Error("NewFloat round trip failed")
	}
	if v := NewString("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Error("NewString round trip failed")
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Error("NewBool round trip failed")
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("Null should be null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be NULL")
	}
}

func TestAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int() on a string should panic")
		}
	}()
	NewString("x").Int()
}

func TestAsFloat(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Error("int AsFloat failed")
	}
	if f, ok := NewFloat(1.5).AsFloat(); !ok || f != 1.5 {
		t.Error("float AsFloat failed")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("string should not convert")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("null should not convert")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(NewInt(2), NewFloat(2.0)) != 0 {
		t.Error("2 should equal 2.0")
	}
	if Compare(NewInt(2), NewFloat(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	if Compare(NewFloat(3.5), NewInt(3)) != 1 {
		t.Error("3.5 > 3")
	}
}

func TestCompareNullOrdering(t *testing.T) {
	if Compare(Null, NewInt(0)) != -1 {
		t.Error("NULL sorts before values")
	}
	if Compare(NewInt(0), Null) != 1 {
		t.Error("values sort after NULL")
	}
	if Compare(Null, Null) != 0 {
		t.Error("NULL compares equal to NULL for sorting")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if Compare(NewString("a"), NewString("b")) != -1 {
		t.Error("string order")
	}
	if Compare(NewString("b"), NewString("b")) != 0 {
		t.Error("string equality")
	}
	if Compare(NewBool(false), NewBool(true)) != -1 {
		t.Error("false < true")
	}
	if Compare(NewBool(true), NewBool(true)) != 0 {
		t.Error("bool equality")
	}
}

func TestCompareMixedKindsStable(t *testing.T) {
	// Non-numeric cross-kind comparisons order by kind tag; whatever the
	// order is, it must be antisymmetric.
	a, b := NewString("x"), NewBool(true)
	if Compare(a, b) != -Compare(b, a) {
		t.Error("cross-kind compare must be antisymmetric")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("NULL must not equal NULL (SQL semantics)")
	}
	if Equal(Null, NewInt(1)) || Equal(NewInt(1), Null) {
		t.Error("NULL must not equal a value")
	}
	if !Equal(NewInt(1), NewFloat(1)) {
		t.Error("1 = 1.0")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-3), "-3"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// randomValue generates an arbitrary value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.Intn(100) - 50))
	case 2:
		return NewFloat(math.Round(r.Float64()*100) / 4)
	case 3:
		return NewString(string(rune('a' + r.Intn(26))))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
