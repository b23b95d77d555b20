package udr

import (
	"fmt"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// newFuncEntry registers a function relation F(k, v) returning perCall
// rows per key and counting invocations.
func newFuncEntry(perCall int) (*catalog.Entry, *int) {
	cat := catalog.New()
	s := schema.New(
		schema.Column{Table: "F", Name: "k", Type: value.KindInt},
		schema.Column{Table: "F", Name: "v", Type: value.KindInt},
	)
	calls := new(int)
	fn := func(args value.Row) ([]value.Row, error) {
		*calls++
		out := make([]value.Row, perCall)
		for i := range out {
			out[i] = value.Row{args[0], value.NewInt(args[0].Int()*100 + int64(i))}
		}
		return out, nil
	}
	return cat.AddFunc("F", s, []int{0}, fn, nil, float64(perCall)), calls
}

func outerTable(t testing.TB, keys []int64) *storage.Table {
	t.Helper()
	s := schema.New(schema.Column{Table: "o", Name: "k", Type: value.KindInt})
	tb := storage.NewTable("o", s)
	for _, k := range keys {
		tb.MustInsert(value.NewInt(k))
	}
	return tb
}

func TestProbeJoinPlain(t *testing.T) {
	e, calls := newFuncEntry(2)
	outer := outerTable(t, []int64{1, 2, 1, 3, 1})
	j := NewProbeJoin(exec.NewTableScan(outer, "o"), e, []int{0}, nil, false, "F")
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 outer × 2 per call
		t.Fatalf("rows = %d", len(rows))
	}
	if *calls != 5 {
		t.Errorf("plain probe made %d calls, want 5 (one per outer row)", *calls)
	}
	if ctx.Counter.FnCalls != 5 {
		t.Errorf("FnCalls counter = %d", ctx.Counter.FnCalls)
	}
	if j.Calls() != 5 {
		t.Errorf("Calls() = %d", j.Calls())
	}
}

func TestProbeJoinMemo(t *testing.T) {
	e, calls := newFuncEntry(2)
	outer := outerTable(t, []int64{1, 2, 1, 3, 1, 2})
	j := NewProbeJoin(exec.NewTableScan(outer, "o"), e, []int{0}, nil, true, "F")
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	if *calls != 3 {
		t.Errorf("memo probe made %d calls, want 3 distinct", *calls)
	}
	// Re-open resets the cache (fresh execution).
	if _, err := exec.Drain(ctx, j); err != nil {
		t.Fatal(err)
	}
	if *calls != 6 {
		t.Errorf("re-execution should re-invoke: %d", *calls)
	}
}

func TestProbeJoinResidual(t *testing.T) {
	e, _ := newFuncEntry(3)
	outer := outerTable(t, []int64{1})
	// Keep only v = 101 over layout (o.k F.k F.v).
	res := expr.Eq(expr.NewCol(2, "F.v"), expr.Int(101))
	j := NewProbeJoin(exec.NewTableScan(outer, "o"), e, []int{0}, res, false, "F")
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][2].Int() != 101 {
		t.Errorf("residual filtering wrong: %v", rows)
	}
}

func TestProbeJoinErrorPropagates(t *testing.T) {
	cat := catalog.New()
	s := schema.New(schema.Column{Table: "F", Name: "k", Type: value.KindInt})
	e := cat.AddFunc("F", s, []int{0}, func(value.Row) ([]value.Row, error) {
		return nil, fmt.Errorf("boom")
	}, nil, 1)
	outer := outerTable(t, []int64{1})
	j := NewProbeJoin(exec.NewTableScan(outer, "o"), e, []int{0}, nil, false, "F")
	ctx := exec.NewContext()
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var rd exec.RowReader
	if _, _, err := rd.Read(ctx, j); err == nil {
		t.Error("function errors must propagate")
	}
}

func TestConsecutiveScan(t *testing.T) {
	e, calls := newFuncEntry(2)
	keys := exec.NewKeySet(1)
	keys.Add(value.Row{value.NewInt(5)}, []int{0})
	keys.Add(value.Row{value.NewInt(7)}, []int{0})
	keys.Add(value.Row{value.NewInt(5)}, []int{0}) // duplicate ignored
	s := NewConsecutiveScan(e, keys, "F")
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if *calls != 2 {
		t.Errorf("consecutive scan made %d calls, want one per distinct key", *calls)
	}
	if s.Calls() != 2 {
		t.Errorf("Calls() = %d", s.Calls())
	}
	if ctx.Counter.FnCalls != 2 {
		t.Errorf("FnCalls = %d", ctx.Counter.FnCalls)
	}
	// Restartable.
	if _, err := exec.Drain(ctx, s); err != nil {
		t.Fatal(err)
	}
	if *calls != 4 {
		t.Error("re-open re-invokes")
	}
}
