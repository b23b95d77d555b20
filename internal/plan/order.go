package plan

import (
	"fmt"
	"sort"
	"strings"
)

// OrderKey is one key of a physical sort order. Cols lists block-layout
// columns that are pairwise value-equal in every row of the stream (an
// equality equivalence class), so being sorted on any one of them means
// being sorted on all; Desc marks a descending key. Leaving Cols as a
// set rather than a single column lets orderings survive equi joins: a
// merge join on E.did = D.did produces rows ordered on both columns at
// once.
type OrderKey struct {
	Cols []int
	Desc bool
}

// Has reports whether col is one of the key's equivalent columns.
func (k OrderKey) Has(col int) bool {
	for _, c := range k.Cols {
		if c == col {
			return true
		}
	}
	return false
}

// intersects reports whether the two keys share a column.
func (k OrderKey) intersects(o OrderKey) bool {
	for _, c := range o.Cols {
		if k.Has(c) {
			return true
		}
	}
	return false
}

// Ordering is a physical sort-order property: rows are sorted
// lexicographically by the key sequence. A nil/empty Ordering means the
// stream carries no known order (heaps, hash output).
type Ordering []OrderKey

// Satisfies reports whether a stream with this ordering already
// delivers rows in the wanted order: want must be a prefix-wise match,
// with equal directions and at least one shared column per key.
func (have Ordering) Satisfies(want Ordering) bool {
	if len(want) > len(have) {
		return false
	}
	for i, w := range want {
		if have[i].Desc != w.Desc || !have[i].intersects(w) {
			return false
		}
	}
	return true
}

// PrefixCovers reports whether the ordering's leading keys cover the
// column set exactly: rows with equal values on cols are then adjacent
// in the stream (direction is irrelevant for grouping), which is what a
// streaming group-by needs.
func (have Ordering) PrefixCovers(cols []int) bool {
	remaining := map[int]bool{}
	for _, c := range cols {
		remaining[c] = true
	}
	if len(remaining) == 0 {
		return true
	}
	for _, k := range have {
		hit := false
		for _, c := range k.Cols {
			if remaining[c] {
				delete(remaining, c)
				hit = true
			}
		}
		if !hit {
			return false
		}
		if len(remaining) == 0 {
			return true
		}
	}
	return false
}

// ExtendEquiv widens the ordering with columns newly equated to its
// keys: for every equi pair (outerCols[i], innerCols[i]) that holds on
// the stream, an ordering key containing the outer column also orders
// the inner one. The receiver is not mutated (orderings are shared
// between plan nodes).
func (have Ordering) ExtendEquiv(outerCols, innerCols []int) Ordering {
	// Size one column buffer for every key at once; an ordering no pair
	// touches is returned as is.
	size, hits := 0, 0
	for _, k := range have {
		size += len(k.Cols)
		for _, oc := range outerCols {
			if k.Has(oc) {
				hits++
			}
		}
	}
	if hits == 0 {
		return have
	}
	out := make(Ordering, len(have))
	buf := make([]int, 0, size+hits)
	for i, k := range have {
		start := len(buf)
		buf = append(buf, k.Cols...)
		for j, oc := range outerCols {
			if k.Has(oc) && !containsInt(buf[start:], innerCols[j]) {
				buf = append(buf, innerCols[j])
			}
		}
		out[i] = OrderKey{Cols: buf[start:len(buf):len(buf)], Desc: k.Desc}
	}
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Project keeps only ordering keys expressible over the given column
// set, truncating at the first key with no surviving column (order
// beyond that point is no longer a usable prefix).
func (have Ordering) Project(keep func(col int) bool) Ordering {
	n, size := 0, 0
	for _, k := range have {
		kept := 0
		for _, c := range k.Cols {
			if keep(c) {
				kept++
			}
		}
		if kept == 0 {
			break
		}
		n, size = n+1, size+kept
	}
	if n == 0 {
		return nil
	}
	out := make(Ordering, n)
	buf := make([]int, 0, size)
	for i, k := range have[:n] {
		start := len(buf)
		for _, c := range k.Cols {
			if keep(c) {
				buf = append(buf, c)
			}
		}
		cols := buf[start:len(buf):len(buf)]
		sort.Ints(cols)
		out[i] = OrderKey{Cols: cols, Desc: k.Desc}
	}
	return out
}

// Key renders a canonical string form ("0=4;7 desc"), usable as a memo
// bucket label: equal strings iff equal orderings (with sorted Cols).
func (have Ordering) Key() string {
	if len(have) == 0 {
		return ""
	}
	var b strings.Builder
	for i, k := range have {
		if i > 0 {
			b.WriteString(";")
		}
		for j, c := range k.Cols {
			if j > 0 {
				b.WriteString("=")
			}
			fmt.Fprintf(&b, "%d", c)
		}
		if k.Desc {
			b.WriteString(" desc")
		}
	}
	return b.String()
}

// DescribeOrdering renders an ordering for display against a node: each
// key shows the first of its columns present in the node's output (by
// qualified name), or "#col" when none is. Empty orderings render "".
func DescribeOrdering(ord Ordering, n *Node) string {
	if len(ord) == 0 {
		return ""
	}
	var parts []string
	for _, k := range ord {
		name := ""
		for _, c := range k.Cols {
			if n.ColMap != nil && c >= 0 && c < len(n.ColMap) && n.ColMap[c] >= 0 && n.ColMap[c] < n.OutSchema.Len() {
				name = n.OutSchema.Col(n.ColMap[c]).QualifiedName()
				break
			}
		}
		if name == "" && len(k.Cols) > 0 {
			name = fmt.Sprintf("#%d", k.Cols[0])
		}
		if k.Desc {
			name += " desc"
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, ", ")
}
