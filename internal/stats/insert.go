package stats

import (
	"math"

	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// ApplyInsert returns statistics for t given old, the statistics Collect
// returned for t's first `first` rows (or an earlier ApplyInsert built
// from them): rows [first:NumRows()) are folded in without re-reading
// the rest of the table. Rows, NullFrac, Min/Max, Sorted and Distinct
// come out exactly as Collect(t) would compute them. Each histogram
// counts a new value into the first bucket whose upper bound is >= it,
// widening an edge bucket for a value outside the old range, so bucket
// counts and per-bucket distincts stay true counts of the data between
// the bounds; what drifts is the equi-height balance, which the caller
// bounds by collecting afresh once a bucket's worth of rows went in.
//
// old is never mutated and the result shares no histogram with it
// (readers may still hold old). The result carries no SelFix. nil means
// the fold does not model the change — old does not describe `first`
// rows of this schema, a column gets its first non-null value, or a
// value is outside what Collect counts off a sorted float run (not
// numeric in a ranged column, not an exactFloat) — and the caller
// collects instead.
func ApplyInsert(old *RelStats, t *storage.Table, first int) *RelStats {
	rows := t.Rows()
	if old == nil || first < 0 || first > len(rows) || old.Rows != float64(first) || len(old.Cols) != t.Schema().Len() {
		return nil
	}
	out := &RelStats{Rows: float64(len(rows)), Cols: make([]ColStats, len(old.Cols))}
	for c, cs := range old.Cols {
		if !foldColumn(&cs, t, c, first) {
			return nil
		}
		out.Cols[c] = cs
	}
	return out
}

// foldColumn advances cs, column c's statistics over rows [0:first), to
// cover every row of t; false means ApplyInsert's nil.
func foldColumn(cs *ColStats, t *storage.Table, c, first int) bool {
	rows := t.Rows()
	if cs.HasRange && (cs.Hist == nil || !exactFloat(cs.Min) || !exactFloat(cs.Max)) {
		return false
	}
	// NullFrac was computed as nulls/first, so the count rounds back out.
	nulls := int(math.Round(cs.NullFrac * float64(first)))
	var prev value.Value
	if cs.Sorted {
		prev = lastNonNull(rows[:first], c)
	}
	if cs.HasRange {
		cs.Hist = cs.Hist.clone() // add works in place, on a private copy
	}
	col := []int{c}
	ix := t.IndexOn(col)
	for i := first; i < len(rows); i++ {
		v := rows[i][c]
		if v.IsNull() {
			nulls++
			continue
		}
		f, num := v.AsFloat()
		if cs.Distinct == 0 || num != cs.HasRange || (num && !exactFloat(f)) {
			return false
		}
		if cs.Sorted && value.Compare(prev, v) > 0 {
			cs.Sorted = false
		}
		prev = v

		// Is v new to the column? No per-row state is kept to answer that;
		// the cheap exact answers come first.
		var isNew bool
		switch {
		case num && (f < cs.Min || f > cs.Max):
			isNew = true
		case num && cs.Hist.hasBound(f):
			// Bounds are data values: Collect takes them from the column
			// and the fold only ever widens one to an inserted value.
		case ix != nil:
			// The row is in its own index bucket already; bucket ids
			// ascend, so v is new exactly when the row leads its bucket.
			isNew = ix.LookupRow(rows[i], col)[0] == i
		default:
			isNew = !columnHas(rows[:i], c, v)
		}
		if isNew {
			cs.Distinct++
		}
		if num {
			cs.Hist.add(f, isNew)
			cs.Min, cs.Max = math.Min(cs.Min, f), math.Max(cs.Max, f)
		}
	}
	if len(rows) > 0 {
		cs.NullFrac = float64(nulls) / float64(len(rows))
	}
	return true
}

// lastNonNull returns column c's last non-null value in rows (the zero
// Value, NULL, when there is none).
func lastNonNull(rows []value.Row, c int) value.Value {
	for i := len(rows) - 1; i >= 0; i-- {
		if v := rows[i][c]; !v.IsNull() {
			return v
		}
	}
	return value.Value{}
}

// columnHas reports whether some row holds a value equal to v in column
// c: one early-exit pass that allocates nothing, newest row first (a
// repeated value is likeliest among recent inserts), comparing raw
// floats when v is numeric (the caller has checked it is an exactFloat,
// where that is Row.Key equality).
func columnHas(rows []value.Row, c int, v value.Value) bool {
	f, num := v.AsFloat()
	for i := len(rows) - 1; i >= 0; i-- {
		if num {
			if g, ok := rows[i][c].AsFloat(); ok && g == f {
				return true
			}
		} else if value.Equal(rows[i][c], v) {
			return true
		}
	}
	return false
}

// clone returns a histogram sharing no storage with h.
func (h *Histogram) clone() *Histogram {
	return &Histogram{
		bounds:   append([]float64(nil), h.bounds...),
		counts:   append([]int(nil), h.counts...),
		distinct: append([]int(nil), h.distinct...),
		total:    h.total,
	}
}

// bucketOf returns the first bucket whose upper bound is >= x, the one
// holding every row equal to x; the last bucket when x is above them
// all.
func (h *Histogram) bucketOf(x float64) int {
	b := 0
	for b < len(h.counts)-1 && h.bounds[b+1] < x {
		b++
	}
	return b
}

// hasBound reports whether x is one of the bucket bounds.
func (h *Histogram) hasBound(x float64) bool {
	return x == h.bounds[0] || x == h.bounds[h.bucketOf(x)+1]
}

// add counts one more row of value x into h in place (h must be a
// private clone), widening the edge bound when x is outside the range.
func (h *Histogram) add(x float64, isNew bool) {
	b := h.bucketOf(x)
	if x < h.bounds[0] {
		h.bounds[0] = x
	}
	if last := len(h.bounds) - 1; x > h.bounds[last] {
		h.bounds[last] = x
	}
	h.counts[b]++
	if isNew {
		h.distinct[b]++
	}
	h.total++
}
