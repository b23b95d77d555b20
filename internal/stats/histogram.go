package stats

import (
	"fmt"
	"sort"

	"filterjoin/internal/expr"
)

// Histogram is an equi-height histogram over a numeric column. Buckets
// hold approximately equal row counts; bucket boundaries adapt to skew,
// which matters for the Fig-1 workload where a small fraction of
// departments carries most employees.
type Histogram struct {
	bounds   []float64 // len B+1: bounds[i] .. bounds[i+1] is bucket i
	counts   []int     // rows per bucket
	distinct []int     // distinct values per bucket
	total    int
}

// BuildHistogram builds an equi-height histogram with up to `buckets`
// buckets from the (unsorted is fine) sample values. Returns nil for an
// empty input.
func BuildHistogram(values []float64, buckets int) *Histogram {
	vs := make([]float64, len(values))
	copy(vs, values)
	sort.Float64s(vs)
	return buildSorted(vs, buckets)
}

// buildSorted is BuildHistogram over values already in ascending order;
// it keeps no reference to vs.
func buildSorted(vs []float64, buckets int) *Histogram {
	if len(vs) == 0 || buckets < 1 {
		return nil
	}
	if buckets > len(vs) {
		buckets = len(vs)
	}
	h := &Histogram{total: len(vs)}
	per := len(vs) / buckets
	rem := len(vs) % buckets
	h.bounds = append(h.bounds, vs[0])
	i := 0
	for b := 0; b < buckets; b++ {
		n := per
		if b < rem {
			n++
		}
		if n == 0 {
			continue
		}
		if i >= len(vs) {
			break
		}
		end := i + n
		if end > len(vs) {
			end = len(vs)
		}
		// Do not split runs of equal values across buckets.
		for end < len(vs) && vs[end] == vs[end-1] {
			end++
		}
		seg := vs[i:end]
		h.counts = append(h.counts, len(seg))
		h.distinct = append(h.distinct, countDistinct(seg))
		h.bounds = append(h.bounds, seg[len(seg)-1])
		i = end
		if i >= len(vs) {
			break
		}
	}
	return h
}

func countDistinct(sorted []float64) int {
	d := 0
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			d++
		}
	}
	return d
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// LessFraction estimates the fraction of rows with value < x.
func (h *Histogram) LessFraction(x float64) float64 {
	if h == nil || h.total == 0 {
		return 0
	}
	if x <= h.bounds[0] {
		return 0
	}
	if x > h.bounds[len(h.bounds)-1] {
		return 1
	}
	acc := 0.0
	for b := range h.counts {
		lo, hi := h.bounds[b], h.bounds[b+1]
		if x > hi {
			acc += float64(h.counts[b])
			continue
		}
		// x falls inside bucket b: linear interpolation.
		if hi > lo {
			acc += float64(h.counts[b]) * (x - lo) / (hi - lo)
		}
		break
	}
	return acc / float64(h.total)
}

// RefineCmp returns a fresh histogram adjusted so the given comparison
// against x estimates close to the observed selectivity sel, or nil when
// the observation is not representable (x outside the value range, or an
// unsupported operator). The receiver is never mutated — refined
// statistics must not leak into RelStats clones sharing the old
// histogram pointer.
func (h *Histogram) RefineCmp(op expr.CmpOp, x, sel float64) *Histogram {
	if h == nil || h.total == 0 {
		return nil
	}
	sel = clamp01(sel)
	switch op {
	case expr.EQ:
		return h.RefineEq(x, sel)
	case expr.LT, expr.LE:
		return h.RefineLess(x, sel)
	case expr.GT, expr.GE:
		return h.RefineLess(x, 1-sel)
	}
	return nil
}

// RefineLess returns a fresh histogram whose LessFraction(x) is frac (up
// to integer rounding), redistributing the row mass below and above x
// while preserving the total row count, the sorted bound sequence, and
// non-negative bucket heights. When x falls strictly inside a bucket,
// that bucket is split at x (bounds stay sorted). Returns nil when x is
// outside the histogram's range.
func (h *Histogram) RefineLess(x, frac float64) *Histogram {
	if h == nil || h.total == 0 {
		return nil
	}
	if x <= h.bounds[0] || x > h.bounds[len(h.bounds)-1] {
		return nil
	}
	frac = clamp01(frac)
	// Rebuild the bucket sequence with x as a boundary, tracking the
	// fractional mass of each bucket and which group (below/above x) it
	// belongs to.
	var (
		bounds   = []float64{h.bounds[0]}
		mass     []float64
		dist     []float64
		belowIdx int // buckets [0, belowIdx) lie below x
	)
	for b := range h.counts {
		lo, hi := h.bounds[b], h.bounds[b+1]
		c, d := float64(h.counts[b]), float64(h.distinct[b])
		if x > lo && x < hi {
			// Split at x by the same linear interpolation LessFraction
			// uses inside a bucket.
			f := (x - lo) / (hi - lo)
			bounds = append(bounds, x, hi)
			mass = append(mass, c*f, c*(1-f))
			dist = append(dist, d*f, d*(1-f))
			belowIdx = len(mass) - 1
			continue
		}
		bounds = append(bounds, hi)
		mass = append(mass, c)
		dist = append(dist, d)
		if hi <= x {
			belowIdx = len(mass)
		}
	}
	// Scale the below-x group to frac*total and the rest to the
	// remainder; cumulative rounding keeps the total exact.
	target := int(frac*float64(h.total) + 0.5)
	if target > h.total {
		target = h.total
	}
	if belowIdx == len(mass) {
		// x at (or beyond) the last bound: there is no above-x group to
		// absorb the remainder, so the below group must keep every row.
		target = h.total
	}
	counts := make([]int, len(mass))
	scaleGroup(mass[:belowIdx], counts[:belowIdx], target)
	scaleGroup(mass[belowIdx:], counts[belowIdx:], h.total-target)
	distinct := make([]int, len(mass))
	for i := range distinct {
		distinct[i] = clampDistinct(dist[i], counts[i])
	}
	return &Histogram{bounds: bounds, counts: counts, distinct: distinct, total: h.total}
}

// RefineEq returns a fresh histogram whose EqFraction(x) is close to
// frac: the bucket holding x is rescaled to the observed mass and the
// remaining buckets absorb the difference proportionally, preserving the
// total. Returns nil when x is outside the histogram's range.
func (h *Histogram) RefineEq(x, frac float64) *Histogram {
	if h == nil || h.total == 0 {
		return nil
	}
	if x < h.bounds[0] || x > h.bounds[len(h.bounds)-1] {
		return nil
	}
	frac = clamp01(frac)
	target := -1
	for b := range h.counts {
		if x >= h.bounds[b] && x <= h.bounds[b+1] {
			target = b
			break
		}
	}
	if target < 0 {
		return nil
	}
	d := h.distinct[target]
	if d < 1 {
		d = 1
	}
	if len(h.counts) == 1 {
		// Single bucket: no other bucket can absorb mass, so express the
		// refinement through the distinct count instead —
		// EqFraction = total/d/total = 1/d, so d ≈ 1/frac.
		nd := float64(h.total)
		if frac > 0 {
			nd = 1 / frac
		}
		return &Histogram{
			bounds:   append([]float64(nil), h.bounds...),
			counts:   []int{h.total},
			distinct: []int{clampDistinct(nd, h.total)},
			total:    h.total,
		}
	}
	// EqFraction(x) = counts[b] / distinct[b] / total.
	want := int(frac*float64(h.total)*float64(d) + 0.5)
	if want > h.total {
		want = h.total
	}
	counts := make([]int, len(h.counts))
	counts[target] = want
	// Other buckets share total-want proportionally to their old mass.
	var others []float64
	for b, c := range h.counts {
		if b != target {
			others = append(others, float64(c))
		}
	}
	scaled := make([]int, len(others))
	scaleGroup(others, scaled, h.total-want)
	j := 0
	for b := range counts {
		if b != target {
			counts[b] = scaled[j]
			j++
		}
	}
	distinct := make([]int, len(h.distinct))
	for b := range distinct {
		distinct[b] = clampDistinct(float64(h.distinct[b]), counts[b])
	}
	bounds := make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	return &Histogram{bounds: bounds, counts: counts, distinct: distinct, total: h.total}
}

// scaleGroup scales the fractional masses onto integer counts summing
// exactly to target, by cumulative rounding (each prefix sum is rounded
// independently, so no bucket drifts more than one row and the group
// total is exact). All-zero masses spread the target over the buckets
// evenly.
func scaleGroup(mass []float64, out []int, target int) {
	if len(mass) == 0 || target <= 0 {
		return
	}
	sum := 0.0
	for _, m := range mass {
		sum += m
	}
	acc, used := 0.0, 0
	for i, m := range mass {
		if sum > 0 {
			acc += m / sum * float64(target)
		} else {
			acc += float64(target) / float64(len(mass))
		}
		c := int(acc+0.5) - used
		if c < 0 {
			c = 0
		}
		out[i] = c
		used += c
	}
	// Any residue from clamping lands in the last bucket.
	if used != target {
		last := len(out) - 1
		out[last] += target - used
		if out[last] < 0 {
			out[last] = 0
		}
	}
}

// clampDistinct bounds a (possibly fractional) distinct estimate by the
// bucket's row count, keeping at least one distinct value in any
// non-empty bucket.
func clampDistinct(d float64, count int) int {
	v := int(d + 0.5)
	if v > count {
		v = count
	}
	if count > 0 && v < 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// CheckInvariants verifies the structural invariants every histogram —
// collected or refined — must satisfy: sorted bounds, one more bound
// than buckets, non-negative heights, per-bucket distinct counts within
// [1, count] for non-empty buckets, and counts summing to the total.
func (h *Histogram) CheckInvariants() error {
	if h == nil {
		return nil
	}
	if len(h.bounds) != len(h.counts)+1 || len(h.distinct) != len(h.counts) {
		return fmt.Errorf("histogram: %d bounds for %d buckets (%d distinct)", len(h.bounds), len(h.counts), len(h.distinct))
	}
	sum := 0
	for b := range h.counts {
		if h.bounds[b] > h.bounds[b+1] {
			return fmt.Errorf("histogram: bounds out of order at bucket %d: %v > %v", b, h.bounds[b], h.bounds[b+1])
		}
		if h.counts[b] < 0 {
			return fmt.Errorf("histogram: negative count %d at bucket %d", h.counts[b], b)
		}
		if h.distinct[b] < 0 || h.distinct[b] > h.counts[b] || (h.counts[b] > 0 && h.distinct[b] < 1) {
			return fmt.Errorf("histogram: distinct %d outside [1,%d] at bucket %d", h.distinct[b], h.counts[b], b)
		}
		sum += h.counts[b]
	}
	if sum != h.total {
		return fmt.Errorf("histogram: counts sum to %d, total is %d", sum, h.total)
	}
	return nil
}

// EqFraction estimates the fraction of rows with value == x.
func (h *Histogram) EqFraction(x float64) float64 {
	if h == nil || h.total == 0 {
		return 0
	}
	if x < h.bounds[0] || x > h.bounds[len(h.bounds)-1] {
		return 0
	}
	// Buckets never split a run of equal values, so the first bucket whose
	// inclusive [lo, hi] range contains x holds every row equal to x.
	for b := range h.counts {
		lo, hi := h.bounds[b], h.bounds[b+1]
		if x < lo || x > hi {
			continue
		}
		d := h.distinct[b]
		if d < 1 {
			d = 1
		}
		return float64(h.counts[b]) / float64(d) / float64(h.total)
	}
	return 0
}
