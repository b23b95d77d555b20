package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// collectOracle is Collect as it was before it learned to count
// distincts off the sorted run: a Row.Key set per column and a second
// sort inside BuildHistogram. Kept as the reference the fast path must
// equal field for field.
func collectOracle(t *storage.Table) *RelStats {
	cols := make([]ColStats, t.Schema().Len())
	for c := range cols {
		var (
			distinct = map[string]bool{}
			nulls    int
			numeric  []float64
			isNum    = true
			sorted   = true
			prev     value.Value
			havePrev bool
		)
		for _, r := range t.Rows() {
			v := r[c]
			if v.IsNull() {
				nulls++
				continue
			}
			if havePrev && value.Compare(prev, v) > 0 {
				sorted = false
			}
			prev, havePrev = v, true
			distinct[r.Key([]int{c})] = true
			if f, ok := v.AsFloat(); ok {
				numeric = append(numeric, f)
			} else {
				isNum = false
			}
		}
		cs := ColStats{Distinct: float64(len(distinct)), Sorted: sorted && havePrev}
		if n := t.NumRows(); n > 0 {
			cs.NullFrac = float64(nulls) / float64(n)
		}
		if isNum && len(numeric) > 0 {
			sort.Float64s(numeric)
			cs.HasRange = true
			cs.Min = numeric[0]
			cs.Max = numeric[len(numeric)-1]
			cs.Hist = BuildHistogram(numeric, DefaultHistogramBuckets)
		}
		cols[c] = cs
	}
	return &RelStats{Rows: float64(t.NumRows()), Cols: cols}
}

// benchEmp builds the benchmark catalog's Emp shape: eid ascending, did
// clustered in equal departments and indexed, integer-valued float sal,
// age 20..59.
func benchEmp(n, nDept int) *storage.Table {
	rng := rand.New(rand.NewSource(int64(n)))
	tb := storage.NewTable("Emp", schema.New(
		schema.Column{Table: "Emp", Name: "eid", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "sal", Type: value.KindFloat},
		schema.Column{Table: "Emp", Name: "age", Type: value.KindInt},
	))
	for i := 0; i < n; i++ {
		tb.MustInsert(value.NewInt(int64(i)), value.NewInt(int64(i*nDept/n)),
			value.NewFloat(float64(1000+rng.Intn(5000))), value.NewInt(int64(20+rng.Intn(40))))
	}
	if _, err := tb.CreateIndex("emp_did", []int{1}); err != nil {
		panic(err)
	}
	return tb
}

func benchDept(n int) *storage.Table {
	rng := rand.New(rand.NewSource(int64(n)))
	tb := storage.NewTable("Dept", schema.New(
		schema.Column{Table: "Dept", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Dept", Name: "budget", Type: value.KindInt},
	))
	for k := 0; k < n; k++ {
		budget := 20000 + rng.Intn(70000)
		if k%10 == 0 {
			budget = 150000
		}
		tb.MustInsert(value.NewInt(int64(k)), value.NewInt(int64(budget)))
	}
	return tb
}

func TestCollectMatchesOracleOnBenchShape(t *testing.T) {
	for _, tb := range []*storage.Table{benchEmp(3000, 100), benchDept(100)} {
		if got, want := Collect(tb), collectOracle(tb); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Collect differs from the oracle:\n got %+v\nwant %+v", tb.Name(), got, want)
		}
	}
}

// script feeds a fold case its decisions one byte at a time, so the
// property test (random bytes) and the fuzz target (mutated bytes) walk
// the same generator. An exhausted script reads zeros.
type script struct {
	b []byte
	i int
}

func (s *script) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *script) done() bool { return s.i >= len(s.b) }

// foldCol is one generated column: its declared kind, and whether its
// values ascend (so Sorted holds until a row breaks it).
type foldCol struct {
	kind      value.Kind
	ascending bool
	counter   int
}

// value draws the column's next cell: NULL one time in eight; small
// domains so duplicates, values beyond both ends of the range, ints in
// float columns and non-integral floats all occur; and, rarely, a
// number float equality cannot tell from its neighbour.
func (c *foldCol) value(s *script) value.Value {
	b := s.next()
	if b%8 == 7 {
		return value.Null
	}
	k := b%24 - 6
	if c.ascending {
		c.counter += b % 3
		k = c.counter
	}
	switch c.kind {
	case value.KindInt:
		if b == 254 {
			return value.NewInt(1<<53 + 1)
		}
		return value.NewInt(int64(k))
	case value.KindFloat:
		switch {
		case b == 254:
			return value.NewFloat(1e300)
		case b%4 == 1:
			return value.NewInt(int64(k))
		}
		return value.NewFloat(float64(k) / 2)
	case value.KindString:
		return value.NewString(fmt.Sprintf("%03d", k+6))
	default:
		return value.NewBool(k%2 == 0)
	}
}

// checkFoldCase builds the table the script describes, collects its
// statistics, then inserts batch after batch; after each batch
// ApplyInsert over the previous statistics must agree with a fresh
// Collect on every exact field, keep every histogram's counts true
// counts of the data between its bounds, and leave its input untouched.
// A nil result is accepted exactly when the batch holds something the
// fold is documented not to model.
func checkFoldCase(t *testing.T, data []byte) {
	s := &script{b: data}
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool}
	cols := make([]*foldCol, 1+s.next()%4)
	defs := make([]schema.Column, len(cols))
	for c := range cols {
		m := s.next()
		cols[c] = &foldCol{kind: kinds[m%4], ascending: m&4 != 0}
		defs[c] = schema.Column{Table: "t", Name: fmt.Sprintf("c%d", c), Type: cols[c].kind}
	}
	tb := storage.NewTable("t", schema.New(defs...))
	if ic := s.next() % (len(cols) + 1); ic < len(cols) {
		if _, err := tb.CreateIndex("ix", []int{ic}); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(n int) {
		for ; n > 0; n-- {
			r := make(value.Row, len(cols))
			for c := range r {
				r[c] = cols[c].value(s)
			}
			if err := tb.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(s.next())
	st := Collect(tb)
	if want := collectOracle(tb); !reflect.DeepEqual(st, want) {
		t.Fatalf("Collect differs from the oracle:\n got %+v\nwant %+v", st, want)
	}
	for batch := 0; !s.done() && batch < 64; batch++ {
		first := tb.NumRows()
		insert(1 + s.next()%5)
		before := deepCopyStats(st)
		got, want := ApplyInsert(st, tb, first), Collect(tb)
		if !reflect.DeepEqual(st, before) {
			t.Fatalf("batch %d: ApplyInsert changed its input:\n now %+v\n was %+v", batch, st, before)
		}
		if !reflect.DeepEqual(want, collectOracle(tb)) {
			t.Fatalf("batch %d: Collect differs from the oracle", batch)
		}
		if unmodeled := foldUnmodeled(st, tb, first); got == nil || unmodeled {
			if (got == nil) != unmodeled {
				t.Fatalf("batch %d: ApplyInsert nil = %v, batch unmodeled = %v", batch, got == nil, unmodeled)
			}
			st = want
			continue
		}
		if got.Rows != want.Rows || got.SelFix != nil {
			t.Fatalf("batch %d: Rows = %g (want %g), SelFix = %v", batch, got.Rows, want.Rows, got.SelFix)
		}
		for c := range want.Cols {
			g, w := got.Cols[c], want.Cols[c]
			if g.Distinct != w.Distinct || g.NullFrac != w.NullFrac || g.Min != w.Min || g.Max != w.Max ||
				g.HasRange != w.HasRange || g.Sorted != w.Sorted || (g.Hist == nil) != (w.Hist == nil) {
				t.Fatalf("batch %d column %d (%s): fold %+v, Collect %+v", batch, c, cols[c].kind, g, w)
			}
			if g.Hist == nil {
				continue
			}
			if err := g.Hist.CheckInvariants(); err != nil {
				t.Fatalf("batch %d column %d: %v", batch, c, err)
			}
			if err := checkBucketsTrue(g.Hist, tb, c); err != nil {
				t.Fatalf("batch %d column %d: %v", batch, c, err)
			}
		}
		st = got
	}
}

// foldUnmodeled says whether rows [first:) hold something ApplyInsert
// documents it answers nil for.
func foldUnmodeled(old *RelStats, tb *storage.Table, first int) bool {
	for c, cs := range old.Cols {
		if cs.HasRange && (!exactFloat(cs.Min) || !exactFloat(cs.Max)) {
			return true
		}
		for _, r := range tb.Rows()[first:] {
			if r[c].IsNull() {
				continue
			}
			if f, num := r[c].AsFloat(); cs.Distinct == 0 || (num && !exactFloat(f)) {
				return true
			}
		}
	}
	return false
}

// checkBucketsTrue recounts column c by brute force: every non-null
// value belongs to the first bucket whose upper bound is >= it, and each
// bucket's count and distinct count must be what the table holds there.
func checkBucketsTrue(h *Histogram, tb *storage.Table, c int) error {
	counts := make([]int, len(h.counts))
	seen := make([]map[float64]bool, len(h.counts))
	total := 0
	for _, r := range tb.Rows() {
		x, ok := r[c].AsFloat()
		if !ok {
			continue
		}
		total++
		b := sort.SearchFloat64s(h.bounds[1:], x)
		if x < h.bounds[0] || b == len(counts) {
			return fmt.Errorf("value %g outside the bounds [%g, %g]", x, h.bounds[0], h.bounds[len(h.bounds)-1])
		}
		counts[b]++
		if seen[b] == nil {
			seen[b] = map[float64]bool{}
		}
		seen[b][x] = true
	}
	if total != h.total {
		return fmt.Errorf("histogram total %d, column has %d non-null values", h.total, total)
	}
	for b := range counts {
		if counts[b] != h.counts[b] || len(seen[b]) != h.distinct[b] {
			return fmt.Errorf("bucket %d (%g, %g]: histogram says %d rows / %d distinct, the table holds %d / %d",
				b, h.bounds[b], h.bounds[b+1], h.counts[b], h.distinct[b], counts[b], len(seen[b]))
		}
	}
	return nil
}

func deepCopyStats(s *RelStats) *RelStats {
	out := s.Clone()
	for c := range out.Cols {
		if h := out.Cols[c].Hist; h != nil {
			out.Cols[c].Hist = h.clone()
		}
	}
	return out
}

// foldScripts are the seeded cases the property test runs and the fuzz
// target starts from.
func foldScripts(n int) [][]byte {
	rng := rand.New(rand.NewSource(20))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 16+rng.Intn(2000))
		rng.Read(out[i])
	}
	return out
}

func TestApplyInsertMatchesCollect(t *testing.T) {
	for _, data := range foldScripts(300) {
		checkFoldCase(t, data)
	}
}

func FuzzApplyInsert(f *testing.F) {
	for _, data := range foldScripts(12) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFoldCase(t, data) })
}

// TestApplyInsertRejectsMismatchedInput: statistics that do not describe
// the table's first `first` rows are not folded.
func TestApplyInsertRejectsMismatchedInput(t *testing.T) {
	tb := sampleTable(t, 40)
	st := Collect(tb)
	tb.MustInsert(value.NewInt(99), value.NewFloat(1), value.NewString("a"))
	for name, got := range map[string]*RelStats{
		"nil stats":     ApplyInsert(nil, tb, 40),
		"wrong first":   ApplyInsert(st, tb, 39),
		"first > rows":  ApplyInsert(st, tb, 42),
		"fewer columns": ApplyInsert(&RelStats{Rows: 40, Cols: st.Cols[:2]}, tb, 40),
	} {
		if got != nil {
			t.Errorf("%s: ApplyInsert = %+v, want nil", name, got)
		}
	}
	if ApplyInsert(st, tb, 40) == nil {
		t.Error("matching input was rejected")
	}
}

var statsSink *RelStats

func BenchmarkCollectEmp(b *testing.B) {
	for _, n := range []int{30000, 200000} {
		tb := benchEmp(n, n/30)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				statsSink = Collect(tb)
			}
		})
	}
}

// BenchmarkApplyInsertOneRow folds the row mixed_rw inserts (a fresh
// eid, an existing did, sal and age at the bottom of their ranges) into
// Emp 30 000; the table grows by one row per iteration.
func BenchmarkApplyInsertOneRow(b *testing.B) {
	tb := benchEmp(30000, 1000)
	st := Collect(tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := tb.NumRows()
		tb.MustInsert(value.NewInt(int64(first)), value.NewInt(int64(i%1000)), value.NewFloat(0), value.NewInt(0))
		if st = ApplyInsert(st, tb, first); st == nil {
			b.Fatal("one-row insert was not folded")
		}
	}
	statsSink = st
}
