package value

import (
	"encoding/binary"
	"math"
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

// Key returns the key encoding of r's values at idx as a string, for use
// as a map key. Numerically equal ints and floats share a key.
func (r Row) Key(idx []int) string {
	return string(r.AppendKey(nil, idx))
}

// FullKey returns the key encoding over all of r's values as a string.
func (r Row) FullKey() string {
	return string(r.AppendFullKey(nil))
}

// AppendKey appends the key encoding of r's values at idx to dst and
// returns the extended slice, so callers can reuse one scratch buffer
// per operator and the hash paths never allocate.
//
// The encoding is the engine's one definition of value identity: two
// keys are equal exactly when Compare says every column pair is equal
// (NULL keys NULL), and bytes.Compare of two keys agrees in sign with
// Compare column by column, NaN aside. It is exact for every int64 and
// float64; int 3 and float 3.0 encode alike, as do 0 and -0.0.
func (r Row) AppendKey(dst []byte, idx []int) []byte {
	for _, j := range idx {
		dst = appendKeyValue(dst, r[j])
	}
	return dst
}

// AppendFullKey appends the key encoding over all of r's values.
func (r Row) AppendFullKey(dst []byte) []byte {
	for _, v := range r {
		dst = appendKeyValue(dst, v)
	}
	return dst
}

// Key tags, one byte per value, in Compare's order of kinds: NULL, the
// numbers (below, inside and above int64's range, then NaN), strings,
// false, true.
const (
	keyNull byte = iota + 1
	keyNumLow
	keyNum
	keyNumHigh
	keyNaN
	keyString
	keyFalse
	keyTrue
)

func appendKeyValue(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, keyNull)
	case KindInt:
		return append(binary.BigEndian.AppendUint64(append(dst, keyNum), v.n^1<<63), 0)
	case KindFloat:
		return appendKeyFloat(dst, v.float())
	case KindString:
		// 0x00 escapes to 0x00 0xFF and 0x00 0x01 ends the string, so
		// a prefix sorts first and the next column cannot run into it.
		dst = append(dst, keyString)
		for s := v.s; ; {
			i := strings.IndexByte(s, 0)
			if i < 0 {
				return append(append(dst, s...), 0, 1)
			}
			dst = append(append(dst, s[:i]...), 0, 0xFF)
			s = s[i+1:]
		}
	case KindBool:
		if v.bool() {
			return append(dst, keyTrue)
		}
		return append(dst, keyFalse)
	}
	return dst
}

// appendKeyFloat keys a float in int64's range as an int does: the
// floor's 8 big-endian bytes with the sign bit flipped, then 0x00, or
// 0x01 and the bits of the (exact, positive) fraction. Floats outside
// the range are integral; their bits, made to ascend, follow their tag.
func appendKeyFloat(dst []byte, f float64) []byte {
	switch {
	case f != f:
		return append(dst, keyNaN)
	case f < -1<<63:
		return binary.BigEndian.AppendUint64(append(dst, keyNumLow), ^math.Float64bits(f))
	case f >= 1<<63:
		return binary.BigEndian.AppendUint64(append(dst, keyNumHigh), math.Float64bits(f))
	}
	i := math.Floor(f)
	dst = binary.BigEndian.AppendUint64(append(dst, keyNum), uint64(int64(i))^1<<63)
	if frac := f - i; frac != 0 {
		return binary.BigEndian.AppendUint64(append(dst, 1), math.Float64bits(frac))
	}
	return append(dst, 0)
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
