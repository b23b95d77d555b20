package opt

import (
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// bigIndexed builds a large table where an equality lookup is far
// cheaper than a scan.
func bigIndexed(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	s := schema.New(
		schema.Column{Table: "Big", Name: "k", Type: value.KindInt},
		schema.Column{Table: "Big", Name: "v", Type: value.KindInt},
	)
	tb := storage.NewTable("Big", s)
	for i := 0; i < 50000; i++ {
		tb.MustInsert(value.NewInt(int64(i/10)), value.NewInt(int64(i)))
	}
	if _, err := tb.CreateIndex("big_k", []int{0}); err != nil {
		t.Fatal(err)
	}
	cat.AddTable(tb)
	return cat
}

func eqQuery() *query.Block {
	return &query.Block{
		Rels:  []query.RelRef{{Name: "Big"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "Big.k"), expr.Int(123))},
	}
}

func TestIndexAccessChosenForEquality(t *testing.T) {
	cat := bigIndexed(t)
	o := New(cat, cost.DefaultModel())
	p, err := o.OptimizeBlock(eqQuery())
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("IndexLookup") == nil {
		t.Fatalf("expected an IndexLookup leaf, got %s", p.Kind)
	}
	rows, c := runNode(t, p)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() != 123 {
			t.Fatalf("wrong key: %v", r)
		}
	}
	// The lookup must be dramatically cheaper than the 391-page scan.
	if c.PageReads > 10 {
		t.Errorf("index lookup read %d pages", c.PageReads)
	}
}

func TestIndexAccessDisabled(t *testing.T) {
	cat := bigIndexed(t)
	o := New(cat, cost.DefaultModel())
	o.Disabled["indexaccess"] = true
	p, err := o.OptimizeBlock(eqQuery())
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("IndexLookup") != nil {
		t.Error("indexaccess was disabled")
	}
}

func TestIndexAccessWithResidualConjunct(t *testing.T) {
	cat := bigIndexed(t)
	o := New(cat, cost.DefaultModel())
	b := eqQuery()
	b.Preds = append(b.Preds, expr.NewCmp(expr.LT, expr.NewCol(1, "Big.v"), expr.Int(1235)))
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := runNode(t, p)
	if len(rows) != 5 { // keys 1230..1234 of the ten 123-rows
		t.Fatalf("rows = %d, want 5", len(rows))
	}
}

func TestIndexAccessNotUsedWithoutIndex(t *testing.T) {
	cat := catalog.New()
	s := schema.New(schema.Column{Table: "N", Name: "k", Type: value.KindInt})
	tb := storage.NewTable("N", s)
	for i := 0; i < 100; i++ {
		tb.MustInsert(value.NewInt(int64(i)))
	}
	cat.AddTable(tb)
	o := New(cat, cost.DefaultModel())
	p, err := o.OptimizeBlock(&query.Block{
		Rels:  []query.RelRef{{Name: "N"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "N.k"), expr.Int(5))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("IndexLookup") != nil {
		t.Error("no index exists, a scan is required")
	}
	rows, _ := runNode(t, p)
	if len(rows) != 1 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestIndexAccessLiteralOnLeft(t *testing.T) {
	cat := bigIndexed(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{
		Rels:  []query.RelRef{{Name: "Big"}},
		Preds: []expr.Expr{expr.Eq(expr.Int(123), expr.NewCol(0, "Big.k"))},
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("IndexLookup") == nil {
		t.Error("literal = column must also use the index")
	}
	rows, _ := runNode(t, p)
	if len(rows) != 10 {
		t.Errorf("rows = %d", len(rows))
	}
}

// TestPickIndexDeterministic: between two indexes that cover the equi
// columns equally well, PickIndex takes the one created first, on every
// fresh table (a pick that followed map order would vary run to run, and
// the two picks cost differently).
func TestPickIndexDeterministic(t *testing.T) {
	s := schema.New(
		schema.Column{Table: "T", Name: "a", Type: value.KindInt},
		schema.Column{Table: "T", Name: "b", Type: value.KindInt},
	)
	for i := 0; i < 200; i++ {
		tb := storage.NewTable("T", s)
		if _, err := tb.CreateIndex("ia", []int{0}); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.CreateIndex("ib", []int{1}); err != nil {
			t.Fatal(err)
		}
		if ix := PickIndex(tb, []int{0, 1}); ix == nil || ix.Name() != "ia" {
			t.Fatalf("table %d: PickIndex = %v, want ia", i, ix)
		}
	}
}
