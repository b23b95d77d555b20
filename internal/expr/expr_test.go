package expr

import (
	"strings"
	"testing"

	"filterjoin/internal/value"
)

func row(vs ...value.Value) value.Row { return value.Row(vs) }

func mustEval(t *testing.T, e Expr, r value.Row) value.Value {
	t.Helper()
	v, err := e.Eval(r)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestColEval(t *testing.T) {
	r := row(value.NewInt(10), value.NewString("x"))
	if v := mustEval(t, NewCol(1, "c"), r); v.Str() != "x" {
		t.Errorf("col eval = %v", v)
	}
	if _, err := NewCol(5, "c").Eval(r); err == nil {
		t.Error("out-of-range column must error")
	}
	if _, err := NewCol(-1, "c").Eval(r); err == nil {
		t.Error("negative column must error")
	}
}

func TestLitShorthands(t *testing.T) {
	if Int(3).V.Int() != 3 {
		t.Error("Int")
	}
	if Float(1.5).V.Float() != 1.5 {
		t.Error("Float")
	}
	if Str("a").V.Str() != "a" {
		t.Error("Str")
	}
}

func TestCmpOperators(t *testing.T) {
	r := row(value.NewInt(5))
	c := NewCol(0, "a")
	cases := []struct {
		op   CmpOp
		lit  int64
		want bool
	}{
		{EQ, 5, true}, {EQ, 4, false},
		{NE, 4, true}, {NE, 5, false},
		{LT, 6, true}, {LT, 5, false},
		{LE, 5, true}, {LE, 4, false},
		{GT, 4, true}, {GT, 5, false},
		{GE, 5, true}, {GE, 6, false},
	}
	for _, tc := range cases {
		got := mustEval(t, NewCmp(tc.op, c, Int(tc.lit)), r)
		if got.Bool() != tc.want {
			t.Errorf("5 %s %d = %v, want %v", tc.op, tc.lit, got.Bool(), tc.want)
		}
	}
}

func TestCmpNullPropagates(t *testing.T) {
	r := row(value.Null)
	v := mustEval(t, NewCmp(EQ, NewCol(0, "a"), Int(1)), r)
	if !v.IsNull() {
		t.Error("NULL = 1 must be NULL")
	}
	ok, err := EvalBool(NewCmp(EQ, NewCol(0, "a"), Int(1)), r)
	if err != nil || ok {
		t.Error("EvalBool must treat NULL as false")
	}
}

func TestCmpCrossKindNumeric(t *testing.T) {
	r := row(value.NewInt(2), value.NewFloat(2.0))
	v := mustEval(t, Eq(NewCol(0, "i"), NewCol(1, "f")), r)
	if !v.Bool() {
		t.Error("2 = 2.0 must hold")
	}
}

func TestAndOrNot(t *testing.T) {
	tr, fa := NewLit(value.NewBool(true)), NewLit(value.NewBool(false))
	r := row()
	if !mustEval(t, NewAnd(tr, tr), r).Bool() {
		t.Error("true AND true")
	}
	if mustEval(t, NewAnd(tr, fa), r).Bool() {
		t.Error("true AND false")
	}
	if !mustEval(t, NewAnd(), r).Bool() {
		t.Error("empty AND is true")
	}
	if !mustEval(t, NewOr(fa, tr), r).Bool() {
		t.Error("false OR true")
	}
	if mustEval(t, Or{}, r).Bool() {
		t.Error("empty OR is false")
	}
	if mustEval(t, Not{Kid: tr}, r).Bool() {
		t.Error("NOT true")
	}
	if !mustEval(t, Not{Kid: fa}, r).Bool() {
		t.Error("NOT false")
	}
	if v := mustEval(t, Not{Kid: NewLit(value.Null)}, r); !v.IsNull() {
		t.Error("NOT NULL is NULL")
	}
}

func TestNewAndFlattens(t *testing.T) {
	inner := NewAnd(Int(1), Int(2))
	outer := NewAnd(inner, Int(3))
	a, ok := outer.(And)
	if !ok || len(a.Kids) != 3 {
		t.Errorf("NewAnd should flatten: %#v", outer)
	}
	// Single child collapses.
	if _, ok := NewAnd(Int(1)).(Lit); !ok {
		t.Error("single-kid AND should collapse")
	}
}

func TestArith(t *testing.T) {
	r := row(value.NewInt(7), value.NewInt(2), value.NewFloat(0.5))
	a, b, f := NewCol(0, "a"), NewCol(1, "b"), NewCol(2, "f")
	if mustEval(t, Arith{Op: Add, L: a, R: b}, r).Int() != 9 {
		t.Error("7+2")
	}
	if mustEval(t, Arith{Op: Sub, L: a, R: b}, r).Int() != 5 {
		t.Error("7-2")
	}
	if mustEval(t, Arith{Op: Mul, L: a, R: b}, r).Int() != 14 {
		t.Error("7*2")
	}
	if mustEval(t, Arith{Op: Div, L: a, R: b}, r).Int() != 3 {
		t.Error("integer 7/2 = 3")
	}
	if mustEval(t, Arith{Op: Add, L: a, R: f}, r).Float() != 7.5 {
		t.Error("int+float promotes")
	}
	if _, err := (Arith{Op: Div, L: a, R: Int(0)}).Eval(r); err == nil {
		t.Error("division by zero must error")
	}
	if v := mustEval(t, Arith{Op: Add, L: a, R: NewLit(value.Null)}, r); !v.IsNull() {
		t.Error("arith with NULL is NULL")
	}
	if _, err := (Arith{Op: Add, L: a, R: Str("x")}).Eval(r); err == nil {
		t.Error("arith over strings must error")
	}
}

func TestShift(t *testing.T) {
	e := NewCmp(GT, NewCol(0, "a"), NewCol(1, "b"))
	s := Shift(e, 3)
	r := row(value.NewInt(0), value.NewInt(0), value.NewInt(0), value.NewInt(9), value.NewInt(4))
	if !mustEval(t, s, r).Bool() {
		t.Error("shifted comparison should read columns 3 and 4")
	}
}

func TestCollectCols(t *testing.T) {
	e := NewAnd(
		NewCmp(EQ, NewCol(1, ""), NewCol(4, "")),
		Or{Kids: []Expr{Not{Kid: NewCmp(LT, NewCol(2, ""), Int(3))}}},
		Arith{Op: Add, L: NewCol(7, ""), R: Int(1)},
	)
	set := map[int]bool{}
	CollectCols(e, set)
	for _, want := range []int{1, 2, 4, 7} {
		if !set[want] {
			t.Errorf("column %d not collected", want)
		}
	}
	if len(set) != 4 {
		t.Errorf("collected %v", set)
	}
}

func TestRemap(t *testing.T) {
	e := NewCmp(EQ, NewCol(2, "a"), NewCol(5, "b"))
	m := make([]int, 6)
	for i := range m {
		m[i] = -1
	}
	m[2], m[5] = 0, 1
	re := Remap(e, m)
	r := row(value.NewInt(4), value.NewInt(4))
	if !mustEval(t, re, r).Bool() {
		t.Error("remapped equality should hold")
	}
	if !Mappable(e, m) {
		t.Error("expression should be mappable")
	}
	m[5] = -1
	if Mappable(e, m) {
		t.Error("expression with unmapped column must not be mappable")
	}
}

func TestRemapPreservesStructure(t *testing.T) {
	e := NewAnd(Not{Kid: NewCmp(LT, NewCol(0, ""), Int(1))},
		NewOr(Arith{Op: Mul, L: NewCol(1, ""), R: Int(2)}))
	m := []int{1, 0}
	re := Remap(e, m)
	if !strings.Contains(re.(And).String(), "NOT") {
		t.Error("Remap must preserve node structure")
	}
}

func TestStringRendering(t *testing.T) {
	e := NewCmp(GE, NewCol(0, "t.a"), Str("x"))
	if got := e.String(); got != "t.a >= 'x'" {
		t.Errorf("String() = %q", got)
	}
	if got := (And{}).String(); got != "true" {
		t.Errorf("empty AND renders %q", got)
	}
	if got := (Or{}).String(); got != "false" {
		t.Errorf("empty OR renders %q", got)
	}
}
