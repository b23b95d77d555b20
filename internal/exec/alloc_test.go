package exec

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"filterjoin/internal/expr"
)

// allocBudget is the checked-in allocation budget per steady-state
// NextBatch call (testdata/alloc_budget.json), held against the exact
// total over the measured calls, so 0 admits no allocation at all. A
// per-row allocation shows up as ~1024 allocs per batch.
type allocBudget map[string]float64

func loadAllocBudget(t *testing.T) allocBudget {
	t.Helper()
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("alloc budget: %v", err)
	}
	var b allocBudget
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("alloc budget: %v", err)
	}
	return b
}

// allocTable builds a table long enough that dozens of NextBatch pulls
// stay in the middle of the stream.
func allocTable(t testing.TB, name string, n int) Operator {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i % 997), int64(i % 31)}
	}
	return NewTableScan(intTable(t, name, []string{"k", "v"}, rows), "")
}

// wideAllocTable is allocTable with a third column, so a join of two is
// six values wide, as join_agg's Emp ⋈ Dept is: a 1024-row morsel of it
// fills one and a half of the arena's largest slabs.
func wideAllocTable(t testing.TB, name string, n int) Operator {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i % 997), int64(i % 31), int64(i)}
	}
	return NewTableScan(intTable(t, name, []string{"k", "v", "w"}, rows), "")
}

// rareResidual is a residual over a join of two allocTables (layout
// k, v, k, v) that keeps about one candidate pair in a thousand.
var rareResidual = expr.NewAnd(
	expr.NewCmp(expr.EQ, expr.NewCol(1, "l.v"), expr.Int(3)),
	expr.NewCmp(expr.EQ, expr.NewCol(3, "r.v"), expr.Int(8)),
)

// TestAllocBudget is the allocation regression gate for the kernel
// paths: a warmed Filter, HashJoin, and GroupBy batch pipeline must not
// allocate more per steady-state NextBatch than the checked-in budget.
// The ResidualReject cases pull one survivor per call, so each call
// walks about a thousand candidates the residual rejects: a rejected
// candidate must cost no allocation, and the survivors' slabs amortize
// to 2 in the 40 measured calls. The GroupByOver cases pull a join into a
// borrowing carrier, the way GroupBy's fold does: the join recycles its
// slabs, so a morsel of joined rows costs no allocation at all.
func TestAllocBudget(t *testing.T) {
	budget := loadAllocBudget(t)
	const tableRows = 200_000
	cases := []struct {
		name   string
		max    int  // NextBatch budget; 0 = DefaultBatchSize
		borrow bool // pull into a borrowing carrier, as a fold does
		mk     func(t *testing.T) Operator
	}{
		{"Select", 0, false, func(t *testing.T) Operator {
			pred := expr.NewAnd(
				expr.NewCmp(expr.LT, expr.NewCol(1, "v"), expr.Int(25)),
				expr.NewCmp(expr.GE, expr.NewCol(0, "k"), expr.Int(3)),
			)
			return NewSelect(allocTable(t, "t", tableRows), pred)
		}},
		{"HashJoin", 0, false, func(t *testing.T) Operator {
			return NewHashJoin(allocTable(t, "b", 4096), allocTable(t, "p", tableRows),
				[]int{0}, []int{0}, nil)
		}},
		{"GroupBy", 0, false, func(t *testing.T) Operator {
			// Distinct keys so the emit phase spans many output batches.
			rows := make([][]int64, tableRows)
			for i := range rows {
				rows[i] = []int64{int64(i), int64(i % 31)}
			}
			scan := NewTableScan(intTable(t, "g", []string{"k", "v"}, rows), "")
			return NewGroupBy(scan, []int{0},
				[]expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
		}},
		{"GroupByOverHashJoin", 0, true, func(t *testing.T) Operator {
			return NewHashJoin(wideAllocTable(t, "b", 4096), wideAllocTable(t, "p", tableRows),
				[]int{0}, []int{0}, nil)
		}},
		{"GroupByOverIndexNLJoin", 0, true, func(t *testing.T) Operator {
			return indexNLJoinOver(t, wideAllocTable(t, "o", 4096), nil)
		}},
		{"IndexNLJoinResidualReject", 1, false, func(t *testing.T) Operator {
			return indexNLJoinOver(t, allocTable(t, "o", 4096), rareResidual)
		}},
		{"NestedLoopJoinResidualReject", 1, false, func(t *testing.T) Operator {
			return NewNestedLoopJoin(allocTable(t, "o", 1024), allocTable(t, "i", 128), rareResidual)
		}},
		{"MergeJoinResidualReject", 1, false, func(t *testing.T) Operator {
			return NewMergeJoin(allocTable(t, "l", 4096), allocTable(t, "r", 20_000),
				[]int{0}, []int{0}, rareResidual)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := budget[tc.name]
			if !ok {
				t.Fatalf("no budget entry for %s", tc.name)
			}
			op := tc.mk(t)
			max := tc.max
			if max == 0 {
				max = DefaultBatchSize
			}
			ctx := NewContext()
			ctx.BatchSize = DefaultBatchSize
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			dst := Batch{Borrow: tc.borrow}
			// Warm up: pull a few batches so scratch buffers, selection
			// vectors, and pooled row storage reach steady-state size.
			for i := 0; i < 8; i++ {
				dst.Reset()
				if err := op.NextBatch(ctx, &dst, max); err != nil {
					t.Fatal(err)
				}
				if dst.Len() == 0 {
					t.Fatalf("input exhausted during warmup")
				}
			}
			const pulls = 40
			got := mallocs(pulls, func() {
				dst.Reset()
				if err := op.NextBatch(ctx, &dst, max); err != nil {
					t.Fatal(err)
				}
				if dst.Len() == 0 {
					t.Fatalf("input exhausted during measurement")
				}
			})
			op.Close(ctx)
			t.Logf("%d allocations in %d pulls", got, pulls)
			if float64(got) > want*pulls {
				t.Errorf("%s: %d steady-state NextBatch pulls allocate %d times (%.3f/pull), budget %g/pull (testdata/alloc_budget.json)",
					tc.name, pulls, got, float64(got)/pulls, want)
			}
		})
	}
}

// indexNLJoinOver joins outer, keyed on its column 0, to a 20 000-row
// indexed (k, v) inner, about 20 matches per key, under residual (nil =
// none; it sees the inner's columns after the outer's).
func indexNLJoinOver(t *testing.T, outer Operator, residual expr.Expr) Operator {
	rows := make([][]int64, 20_000)
	for i := range rows {
		rows[i] = []int64{int64(i % 997), int64(i % 31)}
	}
	inner := intTable(t, "i", []string{"k", "v"}, rows)
	ix, err := inner.CreateIndex("ik", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	return NewIndexNLJoin(outer, inner, ix, []int{0}, residual, "", 0)
}

// TestAllocBudgetNLJReopen gates the row adapter: a nested-loops join
// reads both children through its RowReader and re-Opens the inner once
// per outer row. With an inner that yields nothing (so no joined row is
// ever built), a whole pass over the outer must not allocate — the
// adapter's one-row scratch is an embedded field that survives re-Opens.
func TestAllocBudgetNLJReopen(t *testing.T) {
	want, ok := loadAllocBudget(t)["NestedLoopJoinReopen"]
	if !ok {
		t.Fatal("no budget entry for NestedLoopJoinReopen")
	}
	op := NewNestedLoopJoin(allocTable(t, "o", 512), NewLimit(allocTable(t, "i", 8), 0), nil)
	ctx := NewContext()
	ctx.BatchSize = DefaultBatchSize
	var dst Batch
	pass := func() {
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		dst.Reset()
		if err := op.NextBatch(ctx, &dst, DefaultBatchSize); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != 0 {
			t.Fatalf("empty inner joined %d rows", dst.Len())
		}
		op.Close(ctx)
	}
	const passes = 20
	if got := mallocs(passes, pass); float64(got) > want*passes {
		t.Errorf("%d passes of 512 inner re-opens through the row adapter allocate %d times, budget %g/pass (testdata/alloc_budget.json)", passes, got, want)
	}
}

// mallocs counts the heap allocations of runs calls of f after one
// warm-up call: the total, which testing.AllocsPerRun's integer mean
// would round down, so a budget of 0 admits none.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
