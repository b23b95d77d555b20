package exec

import (
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

func intTable(t testing.TB, name string, cols []string, rows [][]int64) *storage.Table {
	t.Helper()
	sc := make([]schema.Column, len(cols))
	for i, c := range cols {
		sc[i] = schema.Column{Table: name, Name: c, Type: value.KindInt}
	}
	tb := storage.NewTable(name, schema.New(sc...))
	for _, r := range rows {
		vr := make(value.Row, len(r))
		for i, v := range r {
			vr[i] = value.NewInt(v)
		}
		if err := tb.Insert(vr); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func drain(t testing.TB, op Operator) ([]value.Row, cost.Counter) {
	t.Helper()
	ctx := NewContext()
	rows, err := Drain(ctx, op)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rows, *ctx.Counter
}

// pullRow pulls one row from an open operator with budget 1, the way a
// row-at-a-time consumer does.
func pullRow(ctx *Context, op Operator) (value.Row, bool, error) {
	var rd RowReader
	return rd.Read(ctx, op)
}

func TestTableScanChargesExactPages(t *testing.T) {
	rows := make([][]int64, 1000)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i * 2)}
	}
	tb := intTable(t, "t", []string{"a", "b"}, rows)
	got, c := drain(t, NewTableScan(tb, ""))
	if len(got) != 1000 {
		t.Fatalf("rows = %d", len(got))
	}
	if c.PageReads != int64(tb.NumPages()) {
		t.Errorf("PageReads = %d, want %d", c.PageReads, tb.NumPages())
	}
	if c.CPUTuples != 1000 {
		t.Errorf("CPUTuples = %d", c.CPUTuples)
	}
}

func TestTableScanAlias(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}})
	s := NewTableScan(tb, "X")
	if s.Schema().Col(0).Table != "X" {
		t.Error("alias not applied")
	}
}

func TestTableScanRestartable(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}, {2}})
	s := NewTableScan(tb, "")
	r1, _ := drain(t, s)
	r2, _ := drain(t, s)
	if len(r1) != 2 || len(r2) != 2 {
		t.Error("scan must be restartable")
	}
}

func TestSelect(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}})
	pred := expr.NewCmp(expr.GT, expr.NewCol(0, "a"), expr.Int(2))
	rows, c := drain(t, NewSelect(NewTableScan(tb, ""), pred))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Select charges one CPU op per evaluated row on top of the scan.
	if c.CPUTuples != 4+4 {
		t.Errorf("CPUTuples = %d", c.CPUTuples)
	}
}

func TestProject(t *testing.T) {
	tb := intTable(t, "t", []string{"a", "b"}, [][]int64{{1, 10}, {2, 20}})
	exprs := []expr.Expr{
		expr.Arith{Op: expr.Add, L: expr.NewCol(0, "a"), R: expr.NewCol(1, "b")},
	}
	out := schema.New(schema.Column{Name: "sum", Type: value.KindInt})
	rows, _ := drain(t, NewProject(NewTableScan(tb, ""), exprs, out))
	if rows[0][0].Int() != 11 || rows[1][0].Int() != 22 {
		t.Errorf("project results: %v", rows)
	}
}

func TestColumnProject(t *testing.T) {
	tb := intTable(t, "t", []string{"a", "b", "c"}, [][]int64{{1, 2, 3}})
	p := NewColumnProject(NewTableScan(tb, ""), []int{2, 0})
	rows, _ := drain(t, p)
	if rows[0][0].Int() != 3 || rows[0][1].Int() != 1 {
		t.Errorf("column project: %v", rows[0])
	}
	if p.Schema().Col(0).Name != "c" {
		t.Error("projected schema wrong")
	}
}

func TestDistinct(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}, {2}, {1}, {3}, {2}})
	rows, _ := drain(t, NewDistinct(NewTableScan(tb, "")))
	if len(rows) != 3 {
		t.Errorf("distinct rows = %d", len(rows))
	}
	// Restart must reset the seen-set.
	op := NewDistinct(NewTableScan(tb, ""))
	r1, _ := drain(t, op)
	r2, _ := drain(t, op)
	if len(r1) != 3 || len(r2) != 3 {
		t.Error("distinct must reset on re-open")
	}
}

func TestSortOrders(t *testing.T) {
	tb := intTable(t, "t", []string{"a", "b"}, [][]int64{{3, 1}, {1, 2}, {2, 3}, {1, 1}})
	rows, _ := drain(t, NewSort(NewTableScan(tb, ""), []int{0, 1}, nil))
	want := []int64{1, 1, 2, 3}
	for i, r := range rows {
		if r[0].Int() != want[i] {
			t.Fatalf("sort order wrong at %d: %v", i, rows)
		}
	}
	if rows[0][1].Int() != 1 || rows[1][1].Int() != 2 {
		t.Error("secondary key not respected")
	}
	desc, _ := drain(t, NewSort(NewTableScan(tb, ""), []int{0}, []bool{true}))
	if desc[0][0].Int() != 3 {
		t.Error("descending sort wrong")
	}
}

func TestLimit(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}, {2}, {3}})
	rows, _ := drain(t, NewLimit(NewTableScan(tb, ""), 2))
	if len(rows) != 2 {
		t.Errorf("limit rows = %d", len(rows))
	}
}

func TestMaterializeChargesOnceAndScansCheap(t *testing.T) {
	rows := make([][]int64, 600)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	tb := intTable(t, "t", []string{"a"}, rows)
	mat := NewMaterialize(NewTableScan(tb, ""), "tmp")
	ctx := NewContext()
	// First open: build (reads source, writes pages) + scan (reads back).
	r1, err := Drain(ctx, mat)
	if err != nil {
		t.Fatal(err)
	}
	firstCost := *ctx.Counter
	if len(r1) != 600 {
		t.Fatal("wrong row count")
	}
	if firstCost.PageWrites == 0 {
		t.Error("materialize must charge writes on build")
	}
	// Second open: only the cached scan.
	ctx2 := NewContext()
	if _, err := Drain(ctx2, mat); err != nil {
		t.Fatal(err)
	}
	if ctx2.Counter.PageWrites != 0 {
		t.Error("re-scan must not write")
	}
	if ctx2.Counter.PageReads >= firstCost.PageReads {
		t.Error("re-scan should be cheaper than build+scan")
	}
	if mat.Built() == nil {
		t.Error("Built() should expose the table after Open")
	}
}

func TestValuesOperator(t *testing.T) {
	s := schema.New(schema.Column{Name: "x", Type: value.KindInt})
	v := NewValues(s, []value.Row{{value.NewInt(1)}, {value.NewInt(2)}})
	rows, c := drain(t, v)
	if len(rows) != 2 || c.CPUTuples != 2 {
		t.Errorf("values: %d rows, %d cpu", len(rows), c.CPUTuples)
	}
}

func TestErrorOperator(t *testing.T) {
	e := Error(schema.New(), errTest)
	ctx := NewContext()
	if err := e.Open(ctx); err == nil {
		t.Error("Error operator must fail at Open")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

func TestCountHelper(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}, {2}})
	ctx := NewContext()
	n, err := Count(ctx, NewTableScan(tb, ""))
	if err != nil || n != 2 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

func TestIndexLookupOperator(t *testing.T) {
	tb := intTable(t, "t", []string{"k", "v"}, [][]int64{{1, 10}, {2, 20}, {1, 30}})
	ix, err := tb.CreateIndex("i", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	l := NewIndexLookup(tb, ix, value.Row{value.NewInt(1)}, "")
	rows, c := drain(t, l)
	if len(rows) != 2 {
		t.Fatalf("lookup rows = %d", len(rows))
	}
	if c.PageReads < 2 { // index probe + at least one data page
		t.Errorf("PageReads = %d", c.PageReads)
	}
}
