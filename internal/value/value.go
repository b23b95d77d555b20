// Package value defines the typed scalar values and rows that flow through
// the filterjoin engine. Values are small immutable variants over int64,
// float64, string, bool and NULL; rows are flat slices of values.
//
// The package also provides the total order over values (Compare) and
// the one key encoding that agrees with it (Row.AppendKey), which the
// execution operators (hash joins, grouping, distinct projection,
// sorting), the indexes and the statistics layer build on.
package value

import (
	"cmp"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Width returns the nominal storage width in bytes of a value of this kind,
// used by the page-accounting storage layer and the cost model. Strings use
// a fixed nominal width; actual string contents do not change page math,
// which keeps cost estimates deterministic.
func (k Kind) Width() int {
	switch k {
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindString:
		return 16
	default:
		return 1
	}
}

// Value is a typed scalar. The zero Value is NULL. It is 32 bytes: the
// string header, one payload word shared by the fixed-width kinds (an
// int64, a float64's IEEE bits, or a bool as 0/1) and the kind tag —
// rows are flat []Value, so every stored, joined and projected row pays
// this size per column.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// The payload word read back as each fixed-width kind; callers have
// checked v.kind.
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) bool() bool     { return v.n != 0 }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if v is not an int.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("value: Int() on " + v.kind.String())
	}
	return v.int()
}

// Float returns the float payload. It panics if v is not a float.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic("value: Float() on " + v.kind.String())
	}
	return v.float()
}

// Str returns the string payload. It panics if v is not a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("value: Str() on " + v.kind.String())
	}
	return v.s
}

// Bool returns the boolean payload. It panics if v is not a bool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("value: Bool() on " + v.kind.String())
	}
	return v.bool()
}

// AsFloat converts numeric values to float64 for arithmetic and aggregation.
// The second result is false if v is not numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.int()), true
	case KindFloat:
		return v.float(), true
	default:
		return 0, false
	}
}

// Numeric reports whether v is an int or a float.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders v for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.bool() {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Compare totally orders a and b: -1 if a<b, 0 if equal, +1 if a>b.
// NULL sorts before every non-NULL value. Ints and floats compare
// numerically and exactly across kinds — no int64 is rounded to a
// float — so the key encoding (Row.AppendKey) can agree with Compare on
// equality and order. Comparing a non-numeric kind against a different
// non-matching kind orders by kind tag, which gives a stable (if
// arbitrary) total order for sorting heterogeneous columns.
func Compare(a, b Value) int {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return cmp.Compare(a.int(), b.int())
	case a.kind == KindInt && b.kind == KindFloat:
		return CompareIntFloat(a.int(), b.float())
	case a.kind == KindFloat && b.kind == KindInt:
		return -CompareIntFloat(b.int(), a.float())
	case a.kind == KindFloat && b.kind == KindFloat:
		return cmpFloat(a.float(), b.float())
	case a.kind != b.kind:
		return cmp.Compare(a.kind, b.kind) // KindNull is the least tag
	case a.kind == KindString:
		return cmp.Compare(a.s, b.s)
	case a.kind == KindBool:
		return cmp.Compare(a.n, b.n) // false is 0, true 1
	}
	return 0 // both NULL
}

// CompareIntFloat compares i with f exactly, as Compare does across
// kinds: i is never rounded to a float. A NaN f compares equal, as
// between floats.
func CompareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	// f is within int64's range, so its integral part converts exactly;
	// when that part equals i, f's fraction decides.
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmpFloat(t, f)
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether a and b compare equal. NULL is not equal to
// anything, including NULL (SQL semantics); use Compare for sort equality.
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// HashBytes is the engine's one hash: 64-bit FNV-1a over a key encoding
// (Row.AppendKey). The hash tables in internal/exec and the Bloom filter
// use it.
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037) // FNV offset basis
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211 // FNV prime
	}
	return h
}
