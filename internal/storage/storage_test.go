package storage

import (
	"testing"

	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

func intSchema(names ...string) *schema.Schema {
	cols := make([]schema.Column, len(names))
	for i, n := range names {
		cols[i] = schema.Column{Table: "t", Name: n, Type: value.KindInt}
	}
	return schema.New(cols...)
}

func TestInsertValidation(t *testing.T) {
	tb := NewTable("t", intSchema("a", "b"))
	if err := tb.Insert(value.Row{value.NewInt(1)}); err == nil {
		t.Error("wrong arity must error")
	}
	if err := tb.Insert(value.Row{value.NewInt(1), value.NewString("x")}); err == nil {
		t.Error("wrong type must error")
	}
	if err := tb.Insert(value.Row{value.NewInt(1), value.Null}); err != nil {
		t.Errorf("NULL is allowed anywhere: %v", err)
	}
	if tb.NumRows() != 1 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestIntAcceptedForFloatColumn(t *testing.T) {
	s := schema.New(schema.Column{Table: "t", Name: "f", Type: value.KindFloat})
	tb := NewTable("t", s)
	if err := tb.Insert(value.Row{value.NewInt(3)}); err != nil {
		t.Errorf("int into float column: %v", err)
	}
	if err := tb.Insert(value.Row{value.NewString("x")}); err == nil {
		t.Error("string into float column must error")
	}
}

func TestPageGeometry(t *testing.T) {
	tb := NewTable("t", intSchema("a", "b")) // row width 16 -> 256 rows/page
	if tb.RowsPerPage() != PageSize/16 {
		t.Errorf("RowsPerPage = %d", tb.RowsPerPage())
	}
	if tb.NumPages() != 0 {
		t.Error("empty table has 0 pages")
	}
	for i := 0; i < tb.RowsPerPage()+1; i++ {
		tb.MustInsert(value.NewInt(int64(i)), value.NewInt(0))
	}
	if tb.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", tb.NumPages())
	}
	if tb.PageOfRow(0) != 0 || tb.PageOfRow(tb.RowsPerPage()) != 1 {
		t.Error("PageOfRow wrong")
	}
}

func TestPagesFor(t *testing.T) {
	if PagesFor(0, 10) != 0 {
		t.Error("0 rows = 0 pages")
	}
	if PagesFor(1, 10) != 1 || PagesFor(10, 10) != 1 || PagesFor(11, 10) != 2 {
		t.Error("ceil division wrong")
	}
	if PagesFor(5, 0) != 5 {
		t.Error("degenerate rowsPerPage clamps to 1")
	}
}

func TestIndexLookup(t *testing.T) {
	tb := NewTable("t", intSchema("k", "v"))
	for i := 0; i < 100; i++ {
		tb.MustInsert(value.NewInt(int64(i%10)), value.NewInt(int64(i)))
	}
	ix, err := tb.CreateIndex("t_k", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	ids := ix.Lookup(value.Row{value.NewInt(3)})
	if len(ids) != 10 {
		t.Fatalf("Lookup(3) = %d rows, want 10", len(ids))
	}
	for _, id := range ids {
		if tb.Row(id)[0].Int() != 3 {
			t.Errorf("row %d has key %v", id, tb.Row(id)[0])
		}
	}
	if got := ix.Lookup(value.Row{value.NewInt(99)}); got != nil {
		t.Errorf("missing key returns %v", got)
	}
	if ix.DistinctKeys() != 10 {
		t.Errorf("DistinctKeys = %d", ix.DistinctKeys())
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	tb := NewTable("t", intSchema("k"))
	ix, _ := tb.CreateIndex("i", []int{0})
	tb.MustInsert(value.NewInt(7))
	if len(ix.Lookup(value.Row{value.NewInt(7)})) != 1 {
		t.Error("index must see rows inserted after creation")
	}
	tb.Truncate()
	if len(ix.Lookup(value.Row{value.NewInt(7)})) != 0 {
		t.Error("truncate must clear indexes")
	}
}

func TestCreateIndexValidation(t *testing.T) {
	tb := NewTable("t", intSchema("a"))
	if _, err := tb.CreateIndex("bad", []int{5}); err == nil {
		t.Error("out-of-range index column must error")
	}
}

func TestIndexOn(t *testing.T) {
	tb := NewTable("t", intSchema("a", "b", "c"))
	if _, err := tb.CreateIndex("ab", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if tb.IndexOn([]int{1, 0}) == nil {
		t.Error("IndexOn is order-insensitive")
	}
	if tb.IndexOn([]int{0}) != nil {
		t.Error("partial column set should not match exactly")
	}
	if tb.Index("ab") == nil || tb.Index("zz") != nil {
		t.Error("Index by name")
	}
	if len(tb.Indexes()) != 1 {
		t.Error("Indexes()")
	}
}

func TestLookupRow(t *testing.T) {
	tb := NewTable("t", intSchema("k", "v"))
	tb.MustInsert(value.NewInt(5), value.NewInt(50))
	ix, _ := tb.CreateIndex("i", []int{0})
	// Probe with a wider row whose key lives at position 2.
	probe := value.Row{value.NewInt(0), value.NewInt(0), value.NewInt(5)}
	if len(ix.LookupRow(probe, []int{2})) != 1 {
		t.Error("LookupRow with key index failed")
	}
}

func TestProbePages(t *testing.T) {
	if ProbePages(nil, 10) != 0 {
		t.Error("no matches = 0 pages")
	}
	if ProbePages([]int{0, 1, 2}, 10) != 1 {
		t.Error("3 rows on one page")
	}
	if ProbePages([]int{0, 10, 20}, 10) != 3 {
		t.Error("3 rows on 3 pages")
	}
	if ProbePages([]int{5}, 0) != 1 {
		t.Error("degenerate rowsPerPage")
	}
	if ProbePages([]int{25, 3, 27, 11, 4}, 10) != 3 {
		t.Error("unsorted ids revisiting pages: 3 distinct pages")
	}
	ids := []int{1, 2, 15, 31, 32}
	if n := testing.AllocsPerRun(100, func() { ProbePages(ids, 10) }); n != 0 {
		t.Errorf("ascending ids (an index bucket) allocate %.0f/op, want 0", n)
	}
}

func TestFromRows(t *testing.T) {
	rows := []value.Row{{value.NewInt(1)}, {value.NewInt(2)}}
	tb := FromRows("x", intSchema("a"), rows)
	if tb.NumRows() != 2 || tb.Name() != "x" {
		t.Error("FromRows")
	}
}

func TestRowWidthFallback(t *testing.T) {
	// A table whose row is wider than a page still fits one row per page.
	cols := make([]schema.Column, 600)
	for i := range cols {
		cols[i] = schema.Column{Name: "c", Type: value.KindInt}
	}
	tb := NewTable("wide", schema.New(cols...))
	if tb.RowsPerPage() < 1 {
		t.Error("RowsPerPage must be at least 1")
	}
}
