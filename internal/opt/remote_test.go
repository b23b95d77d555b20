package opt

import (
	"math"
	"slices"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

func remoteCat(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	s := schema.New(
		schema.Column{Table: "R", Name: "k", Type: value.KindInt},
		schema.Column{Table: "R", Name: "v", Type: value.KindInt},
	)
	tb := storage.NewTable("R", s)
	for i := 0; i < 1000; i++ {
		tb.MustInsert(value.NewInt(int64(i)), value.NewInt(int64(i*3)))
	}
	cat.AddRemoteTable(tb, 1)
	return cat
}

// TestRemoteScanEstimateExact: for a full remote scan, the optimizer's
// network estimate must match the executed counters exactly — shipping
// is deterministic (rows × width + one message).
func TestRemoteScanEstimateExact(t *testing.T) {
	cat := remoteCat(t)
	o := New(cat, cost.DefaultModel())
	p, err := o.OptimizeBlock(&query.Block{Rels: []query.RelRef{{Name: "R"}}})
	if err != nil {
		t.Fatal(err)
	}
	_, c := runNode(t, p)
	if p.Est.NetBytes != float64(c.NetBytes) {
		t.Errorf("NetBytes estimate %g vs measured %d", p.Est.NetBytes, c.NetBytes)
	}
	if p.Est.NetMsgs != float64(c.NetMsgs) {
		t.Errorf("NetMsgs estimate %g vs measured %d", p.Est.NetMsgs, c.NetMsgs)
	}
	if c.NetBytes != 1000*16 {
		t.Errorf("1000 rows × 16 bytes expected, got %d", c.NetBytes)
	}
}

// TestRemoteLocalPredReducesShipping: local predicates on a remote
// relation are applied at the remote site, shrinking the shipment —
// both in the estimate and in execution.
func TestRemoteLocalPredReducesShipping(t *testing.T) {
	cat := remoteCat(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{
		Rels:  []query.RelRef{{Name: "R"}},
		Preds: []expr.Expr{expr.NewCmp(expr.LT, expr.NewCol(0, "R.k"), expr.Int(100))},
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	_, c := runNode(t, p)
	if c.NetBytes >= 1000*16 {
		t.Errorf("predicate should be pushed to the remote side: shipped %d bytes", c.NetBytes)
	}
	if math.Abs(p.Est.NetBytes-float64(c.NetBytes)) > 0.2*float64(c.NetBytes)+64 {
		t.Errorf("shipping estimate %g far from measured %d", p.Est.NetBytes, c.NetBytes)
	}
}

// viewOverRemoteCat is V = L ⋈ R: five local rows against a 50 000-row
// remote table indexed on the join key, so V's body is a FetchMatches
// join.
func viewOverRemoteCat(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	l := storage.NewTable("L", schema.New(schema.Column{Table: "L", Name: "k", Type: value.KindInt}))
	for i := 0; i < 5; i++ {
		l.MustInsert(value.NewInt(int64(i)))
	}
	cat.AddTable(l)
	r := storage.NewTable("R", schema.New(
		schema.Column{Table: "R", Name: "k", Type: value.KindInt},
		schema.Column{Table: "R", Name: "v", Type: value.KindInt},
	))
	for i := 0; i < 50000; i++ {
		r.MustInsert(value.NewInt(int64(i)), value.NewInt(int64(i*3)))
	}
	if _, err := r.CreateIndex("r_k", []int{0}); err != nil {
		t.Fatal(err)
	}
	cat.AddRemoteTable(r, 1)
	cat.AddView("V", &query.Block{
		Rels:  []query.RelRef{{Name: "L"}, {Name: "R"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "L.k"), expr.NewCol(1, "R.k"))},
	})
	return cat
}

// TestFallbackThroughViewLeaf: the fallback of SELECT * FROM V must be
// fetch-matches-free inside the view leaf too — it is planned on a fork
// with its own view-leaf memo, not from the leaf memoized while
// fetch-matches was enabled — and planning it is invisible: metrics and
// trace are those of the primary search alone.
func TestFallbackThroughViewLeaf(t *testing.T) {
	o := onlyOver(viewOverRemoteCat(t), "hash", "fetchmatches")
	tr := &CollectingTracer{}
	o.Tracer = tr
	p, err := o.OptimizeBlock(&query.Block{Rels: []query.RelRef{{Name: "V"}}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("FetchMatches") == nil {
		t.Fatalf("primary should fetch matches:\n%s", plan.Format(p, o.Model))
	}
	if p.Fallback != nil {
		t.Fatal("OptimizeBlock must leave the fallback to the consumer that degrades")
	}
	fb := o.Fallback(&query.Block{Rels: []query.RelRef{{Name: "V"}}})
	if fb == nil {
		t.Fatal("a FetchMatches plan must have a fallback")
	}
	if fb.Find("FetchMatches") != nil {
		t.Errorf("fallback still contains FetchMatches:\n%s", plan.Format(fb, o.Model))
	}
	rows, _ := runNode(t, p)
	alt, _ := runNode(t, fb)
	if len(rows) != 5 || !slices.Equal(sqlref.Canon(rows), sqlref.Canon(alt)) {
		t.Errorf("primary returned %d rows, fallback %d; want the same 5", len(rows), len(alt))
	}

	if o.Disabled["fetchmatches"] || o.Tracer != Tracer(tr) {
		t.Error("planning the fallback changed the optimizer's configuration")
	}
	// V's body, nested: leaves L and R, then hash and fetch-matches from
	// {L} and hash from {R}; on top, the V leaf.
	want := Metrics{PlansConsidered: 6, SubsetsExplored: 4, NestedOptimizations: 1}
	if o.Metrics != want {
		t.Errorf("metrics = %+v, want the primary search's %+v", o.Metrics, want)
	}
	kinds := map[string]int{}
	for _, ev := range tr.Events {
		kinds[ev.Kind]++
	}
	if len(tr.Events) != 7 || kinds[EvNested] != 1 || kinds[EvLeaf] != 3 || kinds[EvCandidate] != 3 {
		t.Errorf("trace has %d events %v, want the primary search's 1 nested, 3 leaves, 3 candidates", len(tr.Events), kinds)
	}
}
