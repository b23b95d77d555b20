package expr

import (
	"testing"

	"filterjoin/internal/value"
)

func feed(t *testing.T, kind AggKind, vs ...value.Value) value.Value {
	t.Helper()
	st := NewAggState(kind)
	for _, v := range vs {
		if err := st.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return st.Result()
}

func TestAggCount(t *testing.T) {
	v := feed(t, AggCount, value.NewInt(1), value.Null, value.NewInt(3))
	if v.Int() != 2 {
		t.Errorf("COUNT skips NULLs: got %v", v)
	}
	if feed(t, AggCount).Int() != 0 {
		t.Error("empty COUNT is 0")
	}
}

func TestAggSum(t *testing.T) {
	if v := feed(t, AggSum, value.NewInt(2), value.NewInt(3)); v.Int() != 5 {
		t.Errorf("int SUM = %v", v)
	}
	if v := feed(t, AggSum, value.NewInt(2), value.NewFloat(0.5)); v.Float() != 2.5 {
		t.Errorf("mixed SUM = %v", v)
	}
	if !feed(t, AggSum).IsNull() {
		t.Error("empty SUM is NULL")
	}
}

func TestAggAvg(t *testing.T) {
	if v := feed(t, AggAvg, value.NewInt(2), value.NewInt(4)); v.Float() != 3 {
		t.Errorf("AVG = %v", v)
	}
	if !feed(t, AggAvg).IsNull() {
		t.Error("empty AVG is NULL")
	}
	if v := feed(t, AggAvg, value.NewInt(2), value.Null, value.NewInt(4)); v.Float() != 3 {
		t.Error("AVG ignores NULLs")
	}
}

func TestAggMinMax(t *testing.T) {
	if v := feed(t, AggMin, value.NewInt(5), value.NewInt(2), value.NewInt(8)); v.Int() != 2 {
		t.Errorf("MIN = %v", v)
	}
	if v := feed(t, AggMax, value.NewInt(5), value.NewInt(2), value.NewInt(8)); v.Int() != 8 {
		t.Errorf("MAX = %v", v)
	}
	if v := feed(t, AggMin, value.NewString("b"), value.NewString("a")); v.Str() != "a" {
		t.Errorf("string MIN = %v", v)
	}
	if !feed(t, AggMax).IsNull() {
		t.Error("empty MAX is NULL")
	}
}

func TestAggSumNonNumericErrors(t *testing.T) {
	st := NewAggState(AggSum)
	if err := st.Add(value.NewString("x")); err == nil {
		t.Error("SUM over a string must error")
	}
}

func TestAggKindByName(t *testing.T) {
	for name, want := range map[string]AggKind{
		"count": AggCount, "COUNT": AggCount, "Sum": AggSum,
		"avg": AggAvg, "MIN": AggMin, "mAx": AggMax,
	} {
		got, ok := AggKindByName(name)
		if !ok || got != want {
			t.Errorf("AggKindByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := AggKindByName("median"); ok {
		t.Error("median is not supported")
	}
}

func TestAggSpecString(t *testing.T) {
	s := AggSpec{Kind: AggCount}
	if s.String() != "COUNT(*)" {
		t.Errorf("COUNT(*) renders %q", s.String())
	}
	s = AggSpec{Kind: AggAvg, Arg: NewCol(2, "sal")}
	if s.String() != "AVG(sal)" {
		t.Errorf("AVG renders %q", s.String())
	}
}

func TestRemapAgg(t *testing.T) {
	s := AggSpec{Kind: AggSum, Arg: NewCol(1, "x")}
	rm := RemapAgg(s, []int{5, 7})
	if rm.Arg.(Col).Idx != 7 {
		t.Error("RemapAgg should remap the argument")
	}
	star := AggSpec{Kind: AggCount}
	if RemapAgg(star, []int{1}).Arg != nil {
		t.Error("COUNT(*) remains argument-free")
	}
}
