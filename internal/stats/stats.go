// Package stats provides the statistics and cardinality-estimation
// machinery the optimizer relies on: per-column distinct counts, ranges
// and equi-height histograms collected from stored tables; derived
// statistics for intermediate relations; predicate and join selectivity
// estimation in the System R tradition; Yao/Cardenas page-access
// estimation; and projection (distinct) cardinality estimation, which the
// paper calls out as the input to AvailCost_F.
package stats

import (
	"math"
	"sort"

	"filterjoin/internal/expr"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// DefaultHistogramBuckets is the number of equi-height buckets collected
// for numeric columns.
const DefaultHistogramBuckets = 32

// ColStats summarizes one column of a (possibly intermediate) relation.
// All quantities are estimates expressed as float64.
type ColStats struct {
	Distinct float64    // estimated number of distinct non-null values
	NullFrac float64    // fraction of rows that are NULL
	Min, Max float64    // numeric range when HasRange
	HasRange bool       // whether Min/Max are meaningful (numeric column)
	Sorted   bool       // rows are stored in non-decreasing order of this column (clustering)
	Hist     *Histogram // optional equi-height histogram (numeric only)
}

// RelStats summarizes a relation: row count plus per-column stats aligned
// with the relation's schema.
type RelStats struct {
	Rows float64
	Cols []ColStats

	// SelFix maps canonical predicate fingerprints (PredKey) to observed
	// selectivities fed back from instrumented executions (DESIGN.md
	// §12). Selectivity consults it before estimating structurally, so a
	// predicate whose independence-assumption estimate was observed wrong
	// (correlated conjuncts) is corrected on the next plan. The map is
	// immutable once published: feedback application builds a fresh map
	// (copy-on-write), never mutates one reachable from a Clone.
	SelFix map[string]float64
}

// Clone deep-copies the stats (histograms and the SelFix map are shared;
// they are immutable by convention — refinement replaces them wholesale).
func (s *RelStats) Clone() *RelStats {
	cols := make([]ColStats, len(s.Cols))
	copy(cols, s.Cols)
	return &RelStats{Rows: s.Rows, Cols: cols, SelFix: s.SelFix}
}

// Collect computes full statistics for a stored table.
func Collect(t *storage.Table) *RelStats {
	n := t.NumRows()
	cols := make([]ColStats, t.Schema().Len())
	for c := range cols {
		cols[c] = collectColumn(t, c)
	}
	return &RelStats{Rows: float64(n), Cols: cols}
}

// exactFloat reports whether f is a finite number below 2^53 in
// magnitude. On such values float equality and Row.Key equality agree
// (the key folds integral floats onto ints, and every int64 that small
// converts to float64 exactly), so distinct values can be counted off a
// sorted float run instead of a key set.
func exactFloat(f float64) bool { return math.Abs(f) < 1<<53 }

func collectColumn(t *storage.Table, c int) ColStats {
	rows := t.Rows()
	var (
		nulls    int
		numeric  []float64
		isNum    = true // every non-null value so far is numeric...
		exact    = true // ...and an exactFloat
		sorted   = true
		prev     value.Value
		havePrev bool
	)
	for _, r := range rows {
		v := r[c]
		if v.IsNull() {
			nulls++
			continue
		}
		if havePrev && value.Compare(prev, v) > 0 {
			sorted = false
		}
		prev, havePrev = v, true
		if !isNum {
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			isNum, numeric = false, nil
			continue
		}
		if numeric == nil {
			numeric = make([]float64, 0, len(rows)-nulls)
		}
		numeric = append(numeric, f)
		exact = exact && exactFloat(f)
	}
	cs := ColStats{Sorted: sorted && havePrev}
	if len(rows) > 0 {
		cs.NullFrac = float64(nulls) / float64(len(rows))
	}
	if isNum && len(numeric) > 0 {
		sort.Float64s(numeric)
		cs.HasRange = true
		cs.Min = numeric[0]
		cs.Max = numeric[len(numeric)-1]
		cs.Hist = buildSorted(numeric, DefaultHistogramBuckets)
	}
	if isNum && exact {
		cs.Distinct = float64(countDistinct(numeric))
	} else {
		cs.Distinct = float64(distinctKeys(rows, c))
	}
	return cs
}

// distinctKeys counts the distinct non-null values of column c under
// Row.Key equality, the definition every Distinct in this package uses.
func distinctKeys(rows []value.Row, c int) int {
	var (
		seen = map[string]struct{}{}
		idx  = []int{c}
		buf  []byte
	)
	for _, r := range rows {
		if r[c].IsNull() {
			continue
		}
		buf = r.AppendKey(buf[:0], idx)
		if _, ok := seen[string(buf)]; !ok {
			seen[string(buf)] = struct{}{}
		}
	}
	return len(seen)
}

// Concat returns stats for the cross-product-shaped concatenation of two
// relations' columns, with the given output row count.
func Concat(l, r *RelStats, rows float64) *RelStats {
	cols := make([]ColStats, 0, len(l.Cols)+len(r.Cols))
	cols = append(cols, l.Cols...)
	cols = append(cols, r.Cols...)
	out := &RelStats{Rows: rows, Cols: cols}
	out.capDistinct()
	return out
}

// Scale returns stats for the relation after a filter retaining frac of
// the rows. Distinct counts attenuate with the retained cardinality
// following the standard "balls and bins" shrinkage.
func (s *RelStats) Scale(frac float64) *RelStats {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	out := s.Clone()
	out.Rows = s.Rows * frac
	out.capDistinct()
	return out
}

// capDistinct enforces distinct <= rows on every column, attenuating
// distinct counts when the row count shrank below them.
func (s *RelStats) capDistinct() {
	for i := range s.Cols {
		if s.Cols[i].Distinct > s.Rows {
			s.Cols[i].Distinct = s.Rows
		}
	}
}

// DistinctOf returns the distinct-count estimate for column c, defaulting
// to the row count when unknown.
func (s *RelStats) DistinctOf(c int) float64 {
	if c < 0 || c >= len(s.Cols) || s.Cols[c].Distinct <= 0 {
		if s.Rows < 1 {
			return 1
		}
		return s.Rows
	}
	return s.Cols[c].Distinct
}

// ProjectionCardinality estimates the number of distinct rows of the
// projection of a relation with `rows` rows onto columns with the given
// per-column distinct counts. It combines the independence upper bound
// (product of distincts) with the Cardenas occupancy formula over that
// domain, which is the "assumptions about the distributions of values"
// approach the paper references [Yao77].
func ProjectionCardinality(rows float64, distincts []float64) float64 {
	if rows <= 0 {
		return 0
	}
	domain := 1.0
	maxD := 1.0
	for _, d := range distincts {
		if d < 1 {
			d = 1
		}
		if d > maxD {
			maxD = d
		}
		domain *= d
		if domain > 1e15 {
			domain = 1e15
			break
		}
	}
	if domain <= 1 {
		return 1
	}
	// A single column's distinct count is exact knowledge, not a domain
	// to sample from; only multi-column combinations need the occupancy
	// estimate.
	if len(distincts) == 1 {
		return math.Min(rows, domain)
	}
	// Cardenas: expected distinct keys when throwing `rows` balls into
	// `domain` bins uniformly — bounded below by the largest single
	// column (the projection cannot have fewer values than any of its
	// columns has in the data).
	card := domain * (1 - math.Pow(1-1/domain, rows))
	if card < maxD {
		card = maxD
	}
	if card > rows {
		card = rows
	}
	if card < 1 {
		card = 1
	}
	return card
}

// YaoPages estimates the number of pages touched when fetching k random
// records from a relation of n records stored on m pages (Yao's formula,
// with the Cardenas approximation for large inputs).
func YaoPages(n, m, k float64) float64 {
	if k <= 0 || m <= 0 || n <= 0 {
		return 0
	}
	if k >= n {
		return m
	}
	// Cardenas approximation: m * (1 - (1 - 1/m)^k). For small m this is
	// within a few percent of exact Yao and is numerically robust.
	p := m * (1 - math.Pow(1-1/m, k))
	if p > m {
		p = m
	}
	if p < 1 {
		p = 1
	}
	return p
}

// MatchPages estimates the data pages one index probe touches when
// fetching k of n rows stored on m pages (rowsPerPage rows each). When
// the table is clustered on the probed key the matches are contiguous;
// otherwise Yao's formula for randomly scattered records applies.
func MatchPages(n, m, k float64, rowsPerPage int, clustered bool) float64 {
	if k <= 0 || m <= 0 {
		return 0
	}
	if clustered {
		if rowsPerPage < 1 {
			rowsPerPage = 1
		}
		p := math.Ceil(k/float64(rowsPerPage)) + 1
		if p > m {
			p = m
		}
		return p
	}
	return YaoPages(n, m, k)
}

// ClusteredOn reports whether the relation is stored sorted on column c.
func (s *RelStats) ClusteredOn(c int) bool {
	return c >= 0 && c < len(s.Cols) && s.Cols[c].Sorted
}

// JoinSelectivity estimates the selectivity of an equi-join between a
// column with dl distinct values and one with dr distinct values:
// 1/max(dl, dr), the System R containment assumption.
func JoinSelectivity(dl, dr float64) float64 {
	d := math.Max(dl, dr)
	if d < 1 {
		d = 1
	}
	return 1 / d
}

// Selectivity estimates the fraction of rows of a relation with stats s
// that satisfy predicate e. Column references in e are positions in the
// relation's schema. Unrecognized predicate shapes fall back to the
// System R default of 1/3 for inequalities and 1/10 for equalities.
func Selectivity(e expr.Expr, s *RelStats) float64 {
	// Feedback overrides first: an observed selectivity for this exact
	// predicate shape beats any structural estimate (it is a measurement,
	// not an assumption).
	if len(s.SelFix) > 0 {
		if v, ok := s.SelFix[PredKey(e)]; ok {
			return clamp01(v)
		}
	}
	switch p := e.(type) {
	case expr.And:
		sel := 1.0
		for _, k := range p.Kids {
			sel *= Selectivity(k, s)
		}
		return sel
	case expr.Or:
		sel := 0.0
		for _, k := range p.Kids {
			ks := Selectivity(k, s)
			sel = sel + ks - sel*ks
		}
		return sel
	case expr.Not:
		return clamp01(1 - Selectivity(p.Kid, s))
	case expr.Cmp:
		return cmpSelectivity(p, s)
	case expr.Lit:
		if p.V.Kind() == value.KindBool {
			if p.V.Bool() {
				return 1
			}
			return 0
		}
		return 1
	case expr.Param:
		// A bound parameter is the literal it was planned with.
		if p.Has && p.V.Kind() == value.KindBool {
			if p.V.Bool() {
				return 1
			}
			return 0
		}
		return 1
	default:
		return 1.0 / 3.0
	}
}

func cmpSelectivity(p expr.Cmp, s *RelStats) float64 {
	if col, op, k, ok := expr.ColConst(p); ok {
		v, _ := k.Eval(nil) // a literal or bound parameter: cannot fail
		return colLitSelectivity(op, col, v, s)
	}
	lcol, lok := p.L.(expr.Col)
	rcol, rok := p.R.(expr.Col)
	switch {
	case lok && rok && p.Op == expr.EQ:
		// column-vs-column comparison within one relation.
		return JoinSelectivity(s.DistinctOf(lcol.Idx), s.DistinctOf(rcol.Idx))
	case p.Op == expr.EQ:
		return 0.1
	}
	return 1.0 / 3.0
}

func colLitSelectivity(op expr.CmpOp, col expr.Col, lit value.Value, s *RelStats) float64 {
	if col.Idx < 0 || col.Idx >= len(s.Cols) {
		return defaultSel(op)
	}
	cs := s.Cols[col.Idx]
	f, numeric := lit.AsFloat()
	switch op {
	case expr.EQ:
		if numeric && cs.Hist != nil {
			return clamp01(cs.Hist.EqFraction(f))
		}
		if cs.Distinct >= 1 {
			return clamp01(1 / cs.Distinct)
		}
		return 0.1
	case expr.NE:
		return clamp01(1 - colLitSelectivity(expr.EQ, col, lit, s))
	case expr.LT, expr.LE, expr.GT, expr.GE:
		if !numeric || !cs.HasRange {
			return defaultSel(op)
		}
		var frac float64
		if cs.Hist != nil {
			frac = cs.Hist.LessFraction(f)
		} else if cs.Max > cs.Min {
			frac = clamp01((f - cs.Min) / (cs.Max - cs.Min))
		} else {
			// Single-valued column.
			if f > cs.Min {
				frac = 1
			}
		}
		switch op {
		case expr.LT, expr.LE:
			return clamp01(frac)
		default:
			return clamp01(1 - frac)
		}
	}
	return defaultSel(op)
}

func defaultSel(op expr.CmpOp) float64 {
	if op == expr.EQ {
		return 0.1
	}
	return 1.0 / 3.0
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
