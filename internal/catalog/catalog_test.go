package catalog

import (
	"testing"

	"filterjoin/internal/epoch"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

func empTable() *storage.Table {
	s := schema.New(
		schema.Column{Table: "Emp", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "sal", Type: value.KindFloat},
	)
	t := storage.NewTable("Emp", s)
	for i := 0; i < 10; i++ {
		t.MustInsert(value.NewInt(int64(i%3)), value.NewFloat(float64(100*i)))
	}
	return t
}

func TestAddAndGetTable(t *testing.T) {
	c := New()
	e := c.AddTable(empTable())
	if e.Kind != KindBase || e.Virtual() {
		t.Error("base tables are not virtual")
	}
	got, err := c.Get("Emp")
	if err != nil || got != e {
		t.Errorf("Get: %v", err)
	}
	if !c.Has("Emp") || c.Has("Nope") {
		t.Error("Has")
	}
	if _, err := c.Get("Nope"); err == nil {
		t.Error("unknown relation must error")
	}
}

func TestRemoteTableIsVirtual(t *testing.T) {
	c := New()
	e := c.AddRemoteTable(empTable(), 2)
	if e.Kind != KindRemote || !e.Virtual() || e.Site != 2 {
		t.Errorf("remote entry = %+v", e)
	}
	s, err := e.Schema(c)
	if err != nil || s.Len() != 2 {
		t.Error("remote schema")
	}
}

func TestViewSchemaDerivedAndCached(t *testing.T) {
	c := New()
	c.AddTable(empTable())
	v := c.AddView("V", &query.Block{
		Rels:    []query.RelRef{{Name: "Emp"}},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.AggAvg, Arg: expr.NewCol(1, "Emp.sal"), Name: "avgsal"}},
	})
	if !v.Virtual() || v.Kind != KindView {
		t.Error("views are virtual")
	}
	s1, err := v.Schema(c)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Len() != 2 || s1.Col(0).Table != "V" || s1.Col(1).Name != "avgsal" {
		t.Errorf("view schema = %s", s1)
	}
	s2, _ := v.Schema(c)
	if s1 != s2 {
		t.Error("view schema should be cached")
	}
	// The catalog implements query.SchemaResolver.
	var _ query.SchemaResolver = c
	rs, err := c.RelationSchema("V")
	if err != nil || rs.Len() != 2 {
		t.Error("RelationSchema")
	}
}

func TestRemoteView(t *testing.T) {
	c := New()
	c.AddTable(empTable())
	v := c.AddRemoteView("RV", &query.Block{
		Rels: []query.RelRef{{Name: "Emp"}},
	}, 3)
	if v.Kind != KindView || v.Site != 3 {
		t.Errorf("remote view entry = %+v", v)
	}
}

func TestStatsLazyAndInvalidate(t *testing.T) {
	c := New()
	tb := empTable()
	e := c.AddTable(tb)
	s1 := e.Stats()
	if s1 == nil || s1.Rows != 10 {
		t.Fatalf("stats = %+v", s1)
	}
	if e.Stats() != s1 {
		t.Error("stats should be cached")
	}
	e.FoldAppended()
	if e.Stats() != s1 {
		t.Error("a table that did not grow must keep its statistics")
	}
	tb.MustInsert(value.NewInt(9), value.NewFloat(1))
	e.FoldAppended()
	if e.Stats().Rows != 11 {
		t.Error("rows appended through the storage API must reach the statistics")
	}
}

// TestFoldInsertRules: collected statistics follow appended rows without
// a Collect until a histogram bucket's worth went in; statistics never
// collected stay uncollected; feedback is reset by every fold.
func TestFoldInsertRules(t *testing.T) {
	tb := empTable()
	for i := 10; i < 96; i++ {
		tb.MustInsert(value.NewInt(int64(i%3)), value.NewFloat(float64(100*i)))
	}
	e := New().AddTable(tb)
	appendRow := func() {
		first := tb.NumRows()
		tb.MustInsert(value.NewInt(int64(first)), value.NewFloat(50))
		e.FoldInsert(first)
	}

	appendRow()
	if e.Collects() != 0 {
		t.Fatalf("fold before the first Stats() collected %d times", e.Collects())
	}
	base := e.Stats() // 97 rows: three may be folded in
	e.ObserveFeedback(stats.PredObservation{Key: "p", Sel: 0.5, Col: -1})
	if e.Stats().SelFix == nil {
		t.Fatal("feedback not applied")
	}
	for i := 1; i <= 3; i++ {
		appendRow()
		st := e.Stats()
		if e.Collects() != 1 {
			t.Fatalf("row %d within the budget re-collected", i)
		}
		if st == base || st.Rows != float64(97+i) || st.Cols[0].Distinct != float64(4+i) || st.SelFix != nil {
			t.Fatalf("row %d: stats %+v: want fresh, %d rows, %d dids, no feedback", i, st, 97+i, 4+i)
		}
	}
	if base.Rows != 97 || base.Cols[0].Distinct != 4 || base.Cols[0].Max != 96 {
		t.Errorf("folding changed the published statistics: %+v", base)
	}
	appendRow()
	if st := e.Stats(); e.Collects() != 2 || st.Rows != 101 {
		t.Errorf("row past the budget: %d collects, %g rows; want 2, 101", e.Collects(), st.Rows)
	}
}

func TestFuncEntry(t *testing.T) {
	c := New()
	s := schema.New(
		schema.Column{Table: "F", Name: "k", Type: value.KindInt},
		schema.Column{Table: "F", Name: "v", Type: value.KindInt},
	)
	st := &stats.RelStats{Rows: 100, Cols: []stats.ColStats{{Distinct: 10}, {Distinct: 100}}}
	fn := func(args value.Row) ([]value.Row, error) {
		return []value.Row{{args[0], value.NewInt(1)}}, nil
	}
	e := c.AddFunc("F", s, []int{0}, fn, st, 10)
	if !e.Virtual() || e.Kind != KindFunc {
		t.Error("funcs are virtual")
	}
	if e.Stats() != st {
		t.Error("func stats passthrough")
	}
	es, err := e.Schema(c)
	if err != nil || es != s {
		t.Error("func schema passthrough")
	}
	rows, err := e.Fn(value.Row{value.NewInt(7)})
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Error("func invocation")
	}
}

func TestNames(t *testing.T) {
	c := New()
	c.AddTable(empTable())
	c.AddView("B", &query.Block{Rels: []query.RelRef{{Name: "Emp"}}})
	names := c.Names()
	if len(names) != 2 || names[0] != "B" || names[1] != "Emp" {
		t.Errorf("Names = %v", names)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBase: "base", KindView: "view", KindRemote: "remote", KindFunc: "func",
	} {
		if k.String() != want {
			t.Errorf("%v renders %q", k, k.String())
		}
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestGuardChecksEveryMutator: every mutator of a guarded catalog, and of
// the entries it registered, panics outside a write span and inside a
// read span, and runs inside a write span; an unguarded catalog's, a
// guarded one's Clone included, never panic.
func TestGuardChecksEveryMutator(t *testing.T) {
	for _, m := range []struct {
		name   string
		mutate func(*Catalog, *Entry)
	}{
		{"AddTable", func(c *Catalog, _ *Entry) { c.AddTable(empTable()) }},
		{"AddRemoteTable", func(c *Catalog, _ *Entry) { c.AddRemoteTable(empTable(), 1) }},
		{"AddView", func(c *Catalog, _ *Entry) { c.AddView("V", &query.Block{}) }},
		{"AddRemoteView", func(c *Catalog, _ *Entry) { c.AddRemoteView("V", &query.Block{}, 1) }},
		{"AddFunc", func(c *Catalog, _ *Entry) { c.AddFunc("F", nil, nil, nil, nil, 1) }},
		{"FoldInsert", func(_ *Catalog, e *Entry) { e.FoldInsert(e.Table.NumRows()) }},
		{"FoldAppended", func(_ *Catalog, e *Entry) { e.FoldAppended() }},
		{"ObserveFeedback", func(_ *Catalog, e *Entry) { e.ObserveFeedback(stats.PredObservation{Key: "k", Sel: 0.5, Col: -1}) }},
	} {
		l := epoch.New(func() {})
		g := New()
		g.Guard(l)
		var ent *Entry
		l.Write(func() { ent = g.AddTable(empTable()) })
		if !panics(func() { m.mutate(g, ent) }) {
			t.Errorf("%s on a guarded catalog outside any span did not panic", m.name)
		}
		l.Read(func(uint64) {
			if !panics(func() { m.mutate(g, ent) }) {
				t.Errorf("%s on a guarded catalog inside a read span did not panic", m.name)
			}
		})
		l.Write(func() {
			if panics(func() { m.mutate(g, ent) }) {
				t.Errorf("%s on a guarded catalog panicked inside a write span", m.name)
			}
		})
		u := New()
		if uent := u.AddTable(empTable()); panics(func() { m.mutate(u, uent) }) {
			t.Errorf("%s on an unguarded catalog panicked", m.name)
		}
	}
	g := New()
	g.Guard(epoch.New(func() {}))
	if c := g.Clone(); panics(func() { c.AddView("W", &query.Block{}) }) {
		t.Error("a guarded catalog's clone is guarded")
	}
}
