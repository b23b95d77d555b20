package value

import (
	"strconv"
	"strings"
)

// Row is a flat tuple of values.
type Row []Value

// Clone returns a copy of r that shares no storage with it.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Project returns a new row containing r's values at the given indexes.
func (r Row) Project(idx []int) Row {
	out := make(Row, len(idx))
	for i, j := range idx {
		out[i] = r[j]
	}
	return out
}

// Concat returns the concatenation of r followed by s as a new row.
func (r Row) Concat(s Row) Row {
	out := make(Row, 0, len(r)+len(s))
	out = append(out, r...)
	return append(out, s...)
}

// Key returns a canonical string key for the projection of r onto idx,
// suitable for use as a map key in hash joins and distinct projection.
// Numerically equal ints and floats map to the same key.
func (r Row) Key(idx []int) string {
	return string(r.AppendKey(nil, idx))
}

// FullKey returns a canonical string key over all of r's values.
func (r Row) FullKey() string {
	return string(r.AppendFullKey(nil))
}

// AppendKey appends the canonical key encoding of r's values at idx to
// dst and returns the extended slice. The bytes are identical to Key —
// string(r.AppendKey(nil, idx)) == r.Key(idx) — but callers can reuse
// one scratch buffer per operator, so the hot hash paths never allocate.
func (r Row) AppendKey(dst []byte, idx []int) []byte {
	for _, j := range idx {
		dst = appendKeyValue(dst, r[j])
	}
	return dst
}

// AppendFullKey appends the canonical key encoding over all of r's
// values, the byte-slice form of FullKey.
func (r Row) AppendFullKey(dst []byte) []byte {
	for _, v := range r {
		dst = appendKeyValue(dst, v)
	}
	return dst
}

func appendKeyValue(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		dst = append(dst, 'n')
	case KindInt:
		dst = append(dst, 'i')
		dst = strconv.AppendInt(dst, v.int(), 10)
	case KindFloat:
		// The range check comes first: Go leaves an out-of-range
		// float→int conversion implementation-specific (amd64 yields
		// MinInt64, arm64 saturates, keying 2^63 like MaxInt64).
		if f := v.float(); f >= -1<<63 && f < 1<<63 && f == float64(int64(f)) {
			dst = append(dst, 'i')
			dst = strconv.AppendInt(dst, int64(f), 10)
		} else {
			dst = append(dst, 'f')
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		}
	case KindString:
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(len(v.s)), 10)
		dst = append(dst, ':')
		dst = append(dst, v.s...)
	case KindBool:
		if v.bool() {
			dst = append(dst, 'b', 't')
		} else {
			dst = append(dst, 'b', 'f')
		}
	}
	return append(dst, '|')
}

// HashKey hashes the projection of r onto idx.
func (r Row) HashKey(idx []int) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for _, j := range idx {
		h ^= r[j].Hash()
		h *= 1099511628211
	}
	return h
}

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// CompareRows orders two rows lexicographically over the given indexes.
// Index j in keyIdx refers into both rows; descending[i], when provided,
// flips the order of the i-th key.
func CompareRows(a, b Row, keyIdx []int, descending []bool) int {
	for i, j := range keyIdx {
		c := Compare(a[j], b[j])
		if len(descending) > i && descending[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}
