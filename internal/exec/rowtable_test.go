package exec

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"testing"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

func TestRowTableInsertLookup(t *testing.T) {
	var rt RowTable
	rt.Init(0)
	keys := []string{"i1|", "i2|", "s3:abc|", "", "n|", "f1.5|"}
	for i, k := range keys {
		id, added := rt.Insert([]byte(k))
		if !added || id != int32(i) {
			t.Fatalf("Insert(%q) = (%d, %v), want (%d, true)", k, id, added, i)
		}
	}
	for i, k := range keys {
		if id, added := rt.Insert([]byte(k)); added || id != int32(i) {
			t.Fatalf("re-Insert(%q) = (%d, %v), want (%d, false)", k, id, added, i)
		}
		if id := rt.Lookup([]byte(k)); id != int32(i) {
			t.Fatalf("Lookup(%q) = %d, want %d", k, id, i)
		}
		if got := string(rt.Key(int32(i))); got != k {
			t.Fatalf("Key(%d) = %q, want %q", i, got, k)
		}
	}
	if rt.Lookup([]byte("i99|")) != -1 {
		t.Fatal("Lookup of absent key should be -1")
	}
	if rt.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", rt.Len(), len(keys))
	}
}

func TestRowTableGrowAndReinit(t *testing.T) {
	var rt RowTable
	rt.Init(0)
	const n = 10_000
	for i := 0; i < n; i++ {
		k := strconv.AppendInt([]byte("i"), int64(i), 10)
		if id, added := rt.Insert(append(k, '|')); !added || id != int32(i) {
			t.Fatalf("Insert %d = (%d, %v)", i, id, added)
		}
	}
	if rt.Grows() == 0 {
		t.Fatal("unhinted 10k-key build should have grown")
	}
	for i := 0; i < n; i++ {
		k := strconv.AppendInt([]byte("i"), int64(i), 10)
		if id := rt.Lookup(append(k, '|')); id != int32(i) {
			t.Fatalf("Lookup %d = %d after growth", i, id)
		}
	}
	// Re-Init with an exact hint: same inserts, zero growth.
	rt.Init(n)
	for i := 0; i < n; i++ {
		k := strconv.AppendInt([]byte("i"), int64(i), 10)
		rt.Insert(append(k, '|'))
	}
	if g := rt.Grows(); g != 0 {
		t.Fatalf("hinted build grew %d times, want 0", g)
	}
	if rt.Len() != n {
		t.Fatalf("Len = %d after re-Init, want %d", rt.Len(), n)
	}
}

// TestHashJoinHintedBuildNoRehash pins the pre-sizing contract: a hash
// build whose BuildSizeHint covers the build-side cardinality never
// rehashes, and the same holds for a hinted GroupBy. This is the
// regression guard for threading optimizer cardinality estimates into
// the hash tables.
func TestHashJoinHintedBuildNoRehash(t *testing.T) {
	const n = 5000
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	build := intTable(t, "b", []string{"k", "x"}, rows)
	probe := intTable(t, "p", []string{"k", "y"}, rows[:10])

	j := NewHashJoin(NewTableScan(build, ""), NewTableScan(probe, ""), []int{0}, []int{0}, nil)
	j.BuildSizeHint = n
	ctx := NewContext()
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if g := j.tab.ht.Grows(); g != 0 {
		t.Errorf("hinted HashJoin build grew %d times, want 0", g)
	}
	if j.tab.ht.Len() != n {
		t.Errorf("build table has %d keys, want %d", j.tab.ht.Len(), n)
	}
	j.Close(ctx)

	g := NewGroupBy(NewTableScan(build, ""), []int{0}, []expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
	g.SizeHint = n
	if err := g.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if grew := g.ht.Grows(); grew != 0 {
		t.Errorf("hinted GroupBy build grew %d times, want 0", grew)
	}
	g.Close(ctx)
}

// fuzzValue maps two fuzz bytes onto a small value domain, so duplicate
// keys, int/float pairs that must share a key (2 and 2.0), and strings
// containing the encoding's own delimiters are all common.
func fuzzValue(kind, b byte) value.Value {
	switch kind % 4 {
	case 0:
		return value.NewInt(int64(b % 16))
	case 1:
		return value.NewFloat(float64(b%32) / 2)
	case 2:
		return value.NewString([]string{"", "a", "\x00", "i1|", "a\x00", "ab", "1:"}[b%7])
	default:
		return value.Null
	}
}

// FuzzRowTableVsMap drives a RowTable through Row.AppendKey and a
// map[string]int32 through Row.Key over the same two-column rows and
// requires the same dense ids in insertion order, the same Lookup
// answers for present and absent keys, Key round-trips and Len — which
// also pins AppendKey's bytes to Key's string. The table starts unhinted,
// so any input with enough distinct keys crosses at least one Grow.
func FuzzRowTableVsMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows []value.Row
		for ; len(data) >= 4; data = data[4:] {
			rows = append(rows, value.Row{fuzzValue(data[0], data[1]), fuzzValue(data[2], data[3])})
		}
		keys := []int{1, 0}
		var rt RowTable
		ref := map[string]int32{}
		var order []string
		var buf []byte
		for _, r := range rows {
			buf = r.AppendKey(buf[:0], keys)
			k := r.Key(keys)
			if string(buf) != k {
				t.Fatalf("AppendKey %q != Key %q for %v", buf, k, r)
			}
			want, seen := ref[k]
			if !seen {
				want = int32(len(order))
				ref[k] = want
				order = append(order, k)
			}
			if id, added := rt.Insert(buf); id != want || added == seen {
				t.Fatalf("Insert(%q) = (%d, %v), map says (%d, %v)", k, id, added, want, !seen)
			}
		}
		if rt.Len() != len(ref) {
			t.Fatalf("Len = %d, map has %d", rt.Len(), len(ref))
		}
		if len(order)*rtMaxLoadDen > rtCapFor(0)*rtMaxLoadNum && rt.Grows() == 0 {
			t.Fatalf("%d keys in an unhinted table without a Grow", len(order))
		}
		for i, k := range order {
			if got := string(rt.Key(int32(i))); got != k {
				t.Fatalf("Key(%d) = %q, want %q", i, got, k)
			}
		}
		// Single-column probes: some hit a stored two-column key's prefix
		// or nothing at all, and must miss exactly when the map misses.
		for _, r := range rows {
			for _, probe := range []string{r.Key(keys), r.Key(keys[:1])} {
				want, ok := ref[probe]
				if !ok {
					want = -1
				}
				if got := rt.Lookup([]byte(probe)); got != want {
					t.Fatalf("Lookup(%q) = %d, map says %d", probe, got, want)
				}
			}
		}
	})
}

// The map/sort reference for the hash operators: what HashJoin, GroupBy,
// Distinct and KeySet computed when they were keyed on map[string], kept
// here as the oracle the RowTable path is compared against. The join
// follows SQL's =, under which a NULL key matches nothing; grouping and
// DISTINCT keep NULLs together.

func refJoin(build, probe []value.Row, bk, pk []int, keep func(value.Row) bool) (out []value.Row) {
	table := map[string][]value.Row{}
	for _, r := range build {
		if !slices.ContainsFunc(r.Project(bk), value.Value.IsNull) {
			table[r.Key(bk)] = append(table[r.Key(bk)], r)
		}
	}
	for _, r := range probe {
		if slices.ContainsFunc(r.Project(pk), value.Value.IsNull) {
			continue
		}
		for _, l := range table[r.Key(pk)] {
			if j := l.Concat(r); keep == nil || keep(j) {
				out = append(out, j)
			}
		}
	}
	return out
}

func refDistinct(rows []value.Row, idx []int) (out []value.Row) {
	seen := map[string]bool{}
	for _, r := range rows {
		if k := r.Key(idx); !seen[k] {
			seen[k] = true
			out = append(out, r.Project(idx))
		}
	}
	return out
}

func refGroupCount(rows []value.Row, idx []int) []value.Row {
	counts := map[string]int64{}
	for _, r := range rows {
		counts[r.Key(idx)]++
	}
	groups := refDistinct(rows, idx)
	if len(idx) == 0 && len(rows) == 0 {
		groups = []value.Row{{}} // scalar aggregation over no input is one row
	}
	all := make([]int, len(idx)) // a group row is idx's projection
	for i := range all {
		all[i] = i
	}
	sort.Slice(groups, func(a, b int) bool { return value.CompareRows(groups[a], groups[b], all, nil) < 0 })
	for i, g := range groups {
		groups[i] = append(g, value.NewInt(counts[g.FullKey()]))
	}
	return groups
}

// TestHashOperatorsVsMapReference runs each hash operator over inputs
// with duplicate keys, int/float-equal keys, NULLs and strings, at
// three morsel sizes, and requires the reference's rows in
// the reference's order.
func TestHashOperatorsVsMapReference(t *testing.T) {
	I, F, S := value.NewInt, value.NewFloat, value.NewString
	build := []value.Row{{I(1), I(10)}, {I(2), I(20)}, {I(1), I(30)}, {F(2), I(5)}, {value.Null, I(1)}, {S("x"), I(7)}, {I(1), I(10)}}
	probe := []value.Row{{I(2), I(15)}, {I(3), I(99)}, {F(1), I(20)}, {S("x"), I(9)}, {value.Null, I(2)}, {I(1), I(31)}, {I(2), I(15)}}
	sch := schema.New(schema.Column{Name: "k", Type: value.KindInt}, schema.Column{Name: "v", Type: value.KindInt})
	vals := func(rows []value.Row) Operator { return NewValues(sch, rows) }
	residual := expr.NewCmp(expr.LT, expr.NewCol(1, "b.v"), expr.NewCol(3, "p.v"))
	keepLT := func(j value.Row) bool { return j[1].Int() < j[3].Int() }
	count := []expr.AggSpec{{Kind: expr.AggCount, Name: "c"}}
	all := []int{0, 1}

	cases := []struct {
		name string
		mk   func() Operator
		want []value.Row
	}{
		{"HashJoin", func() Operator { return NewHashJoin(vals(build), vals(probe), []int{0}, []int{0}, nil) },
			refJoin(build, probe, []int{0}, []int{0}, nil)},
		{"HashJoin/residual", func() Operator { return NewHashJoin(vals(build), vals(probe), []int{0}, []int{0}, residual) },
			refJoin(build, probe, []int{0}, []int{0}, keepLT)},
		{"GroupBy", func() Operator { return NewGroupBy(vals(build), []int{0}, count) }, refGroupCount(build, []int{0})},
		{"GroupBy/two-keys", func() Operator { return NewGroupBy(vals(build), all, count) }, refGroupCount(build, all)},
		{"GroupBy/scalar", func() Operator { return NewGroupBy(vals(build), nil, count) }, refGroupCount(build, nil)},
		{"GroupBy/scalar-empty", func() Operator { return NewGroupBy(vals(nil), nil, count) }, refGroupCount(nil, nil)},
		{"Distinct", func() Operator { return NewDistinct(vals(build)) }, refDistinct(build, all)},
	}
	for _, tc := range cases {
		for _, batch := range []int{1, 3, DefaultBatchSize} {
			ctx := NewContext()
			ctx.BatchSize = batch
			got, err := Drain(ctx, tc.mk())
			if err != nil {
				t.Fatalf("%s batch=%d: %v", tc.name, batch, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s batch=%d:\n got %v\nwant %v", tc.name, batch, got, tc.want)
			}
		}
	}

	// KeySet: distinct non-NULL key rows in first-insertion order, and
	// membership.
	keyed := slices.DeleteFunc(slices.Clone(build), func(r value.Row) bool { return r[0].IsNull() })
	for _, batch := range []int{1, 3} {
		ctx := NewContext()
		ctx.BatchSize = batch
		ks, err := BuildKeySet(ctx, vals(build), []int{0})
		if err != nil {
			t.Fatal(err)
		}
		want := refDistinct(keyed, []int{0})
		if fmt.Sprint(ks.Rows()) != fmt.Sprint(want) {
			t.Errorf("KeySet batch=%d rows:\n got %v\nwant %v", batch, ks.Rows(), want)
		}
		var buf []byte
		for _, r := range probe {
			var hit bool
			buf, hit = ks.ContainsBuf(r, []int{0}, buf)
			if wantHit := len(refJoin(want, []value.Row{r}, []int{0}, []int{0}, nil)) > 0; hit != wantHit {
				t.Errorf("KeySet batch=%d ContainsBuf(%v) = %v, want %v", batch, r, hit, wantHit)
			}
		}
	}
}
