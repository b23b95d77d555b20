package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"filterjoin/internal/bloom"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

func TestGroupByAggregates(t *testing.T) {
	tb := intTable(t, "t", []string{"g", "v"}, [][]int64{
		{1, 10}, {1, 20}, {2, 5}, {2, 15}, {2, 40}, {3, 7},
	})
	aggs := []expr.AggSpec{
		{Kind: expr.AggCount, Name: "n"},
		{Kind: expr.AggSum, Arg: expr.NewCol(1, "v"), Name: "s"},
		{Kind: expr.AggAvg, Arg: expr.NewCol(1, "v"), Name: "a"},
		{Kind: expr.AggMin, Arg: expr.NewCol(1, "v"), Name: "mn"},
		{Kind: expr.AggMax, Arg: expr.NewCol(1, "v"), Name: "mx"},
	}
	g := NewGroupBy(NewTableScan(tb, ""), []int{0}, aggs)
	rows, _ := drain(t, g)
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Output is sorted by group key.
	r2 := rows[1] // group 2
	if r2[0].Int() != 2 || r2[1].Int() != 3 || r2[2].Int() != 60 ||
		r2[3].Float() != 20 || r2[4].Int() != 5 || r2[5].Int() != 40 {
		t.Errorf("group 2 = %v", r2)
	}
	if g.Schema().Len() != 6 {
		t.Errorf("output schema width = %d", g.Schema().Len())
	}
}

func TestGroupByScalarOverEmptyInput(t *testing.T) {
	tb := intTable(t, "t", []string{"v"}, nil)
	g := NewGroupBy(NewTableScan(tb, ""), nil, []expr.AggSpec{
		{Kind: expr.AggCount, Name: "n"},
		{Kind: expr.AggSum, Arg: expr.NewCol(0, "v"), Name: "s"},
	})
	rows, _ := drain(t, g)
	if len(rows) != 1 {
		t.Fatalf("scalar aggregation must yield one row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 {
		t.Error("COUNT over empty input is 0")
	}
	if !rows[0][1].IsNull() {
		t.Error("SUM over empty input is NULL")
	}
}

func TestGroupByMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(rng.Intn(8)), int64(rng.Intn(50))}
		}
		tb := intTable(t, "t", []string{"g", "v"}, rows)
		g := NewGroupBy(NewTableScan(tb, ""), []int{0}, []expr.AggSpec{
			{Kind: expr.AggSum, Arg: expr.NewCol(1, "v"), Name: "s"},
			{Kind: expr.AggCount, Name: "n"},
		})
		got, _ := drain(t, g)

		sums := map[int64]int64{}
		counts := map[int64]int64{}
		for _, r := range rows {
			sums[r[0]] += r[1]
			counts[r[0]]++
		}
		if len(got) != len(sums) {
			return false
		}
		for _, r := range got {
			k := r[0].Int()
			if r[1].Int() != sums[k] || r[2].Int() != counts[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKeySetBuildAndFilter(t *testing.T) {
	outer := intTable(t, "o", []string{"k", "x"}, [][]int64{{1, 0}, {2, 0}, {1, 0}, {4, 0}})
	ctx := NewContext()
	ks, err := BuildKeySet(ctx, NewTableScan(outer, ""), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if ks.Len() != 3 {
		t.Fatalf("distinct keys = %d, want 3", ks.Len())
	}
	if ks.SizeBytes() != 3*8 {
		t.Errorf("SizeBytes = %d", ks.SizeBytes())
	}
	inner := intTable(t, "i", []string{"k", "v"}, [][]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}})
	rows, _ := drain(t, NewKeySetFilter(NewTableScan(inner, ""), ks, []int{0}))
	if len(rows) != 3 {
		t.Errorf("filtered rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if k := r[0].Int(); k != 1 && k != 2 && k != 4 {
			t.Errorf("unexpected key %d", k)
		}
	}
}

func TestKeySetContainsCrossWidthProbe(t *testing.T) {
	ks := NewKeySet(1)
	ks.Add(value.Row{value.NewInt(7)}, []int{0})
	probe := value.Row{value.NewInt(0), value.NewInt(7)}
	buf, hit := ks.ContainsBuf(probe, []int{1}, nil)
	if !hit {
		t.Error("ContainsBuf must project the probe row onto the key columns")
	}
	if _, hit := ks.ContainsBuf(probe, []int{0}, buf); hit {
		t.Error("wrong column must miss")
	}
}

func TestBloomFilterScanSuperset(t *testing.T) {
	ks := NewKeySet(1)
	for i := 0; i < 50; i++ {
		ks.Add(value.Row{value.NewInt(int64(i * 2))}, []int{0}) // even keys
	}
	bf := ks.ToBloom(10)
	rows := make([][]int64, 400)
	for i := range rows {
		rows[i] = []int64{int64(i % 200), 0}
	}
	tb := intTable(t, "t", []string{"k", "v"}, rows)
	got, _ := drain(t, NewBloomFilterScan(NewTableScan(tb, ""), bf, []int{0}))
	// Every true member must pass (no false negatives).
	passed := map[int64]bool{}
	for _, r := range got {
		passed[r[0].Int()] = true
	}
	for i := 0; i < 100; i += 2 {
		if !passed[int64(i)] {
			t.Fatalf("false negative for key %d", i)
		}
	}

	// A saturated filter lets every key through, but never a NULL one.
	full := bloom.New(1, 1)
	for i := 0; i < 1000; i++ {
		full.Add(value.Row{value.NewInt(int64(i))}.AppendFullKey(nil))
	}
	keys := NewValues(schema.New(schema.Column{Name: "k", Type: value.KindInt}), []value.Row{{value.Null}, {value.NewInt(7)}, {value.Null}})
	if got, _ := drain(t, NewBloomFilterScan(keys, full, []int{0})); len(got) != 1 || got[0][0].IsNull() {
		t.Errorf("saturated filter passed %v, want only (7)", got)
	}
}

func TestKeySetScan(t *testing.T) {
	ks := NewKeySet(1)
	ks.Add(value.Row{value.NewInt(3)}, []int{0})
	ks.Add(value.Row{value.NewInt(9)}, []int{0})
	sch := schema.New(schema.Column{Name: "k0", Type: value.KindInt})
	s := NewKeySetScan(ks, sch)
	rows, c := drain(t, s)
	if len(rows) != 2 || c.CPUTuples != 2 {
		t.Errorf("keyset scan: %d rows", len(rows))
	}
	if s.Schema() != sch {
		t.Error("schema passthrough")
	}
}
