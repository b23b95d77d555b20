package core_test

import (
	"slices"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
)

func optimizeAndRun(t *testing.T, cat *catalog.Catalog, b *query.Block, withFJ bool, fjOpts core.Options) ([]string, cost.Counter, *plan.Node) {
	t.Helper()
	o := opt.New(cat, cost.DefaultModel())
	if withFJ {
		o.Register(core.NewMethod(fjOpts))
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	rows, counter := runPlan(t, planRunner{p.Make})
	return rows, counter, p
}

// TestDistributedBaseTable verifies the remote base-table join: plans
// with and without the Filter Join agree on results, and the semi-join
// (Filter Join) ships fewer bytes than the plain plan when the local
// side is selective.
func TestDistributedBaseTable(t *testing.T) {
	cat, err := datagen.DistCatalog(datagen.DefaultDist())
	if err != nil {
		t.Fatal(err)
	}
	plainRows, plainCost, _ := optimizeAndRun(t, cat, datagen.DistBaseQuery(), false, core.Options{})
	fjRows, fjCost, fjPlan := optimizeAndRun(t, cat, datagen.DistBaseQuery(), true, core.Options{})

	if len(plainRows) == 0 {
		t.Fatal("distributed query returned no rows")
	}
	if !slices.Equal(plainRows, fjRows) {
		t.Fatalf("results differ: plain=%d fj=%d rows", len(plainRows), len(fjRows))
	}
	if fjPlan.Find("FilterJoin") != nil && fjCost.NetBytes >= plainCost.NetBytes {
		t.Errorf("semi-join should reduce network bytes: fj=%d plain=%d", fjCost.NetBytes, plainCost.NetBytes)
	}
}

// TestRemoteViewJoin verifies joins with a view whose body runs at a
// remote site — the heterogeneous-query scenario of §5.1.
func TestRemoteViewJoin(t *testing.T) {
	cat, err := datagen.DistCatalog(datagen.DefaultDist())
	if err != nil {
		t.Fatal(err)
	}
	plainRows, _, _ := optimizeAndRun(t, cat, datagen.DistQuery(), false, core.Options{})
	fjRows, _, _ := optimizeAndRun(t, cat, datagen.DistQuery(), true, core.Options{})
	if len(plainRows) == 0 {
		t.Fatal("remote view query returned no rows")
	}
	if !slices.Equal(plainRows, fjRows) {
		t.Fatalf("results differ: plain=%d fj=%d rows", len(plainRows), len(fjRows))
	}
}

// TestUDRJoin verifies the function-backed relation: repeated probe and
// consecutive-invocation filter join agree, and the filter join never
// makes more calls than there are distinct bindings.
func TestUDRJoin(t *testing.T) {
	cat, counter, err := datagen.UDRCatalog(datagen.DefaultUDR())
	if err != nil {
		t.Fatal(err)
	}
	plainRows, _, _ := optimizeAndRun(t, cat, datagen.UDRQuery(), false, core.Options{})
	plainCalls := counter.Calls

	counter.Calls = 0
	fjRows, _, fjPlan := optimizeAndRun(t, cat, datagen.UDRQuery(), true, core.Options{})
	fjCalls := counter.Calls

	if len(plainRows) == 0 {
		t.Fatal("UDR query returned no rows")
	}
	if !slices.Equal(plainRows, fjRows) {
		t.Fatalf("results differ: plain=%d fj=%d rows", len(plainRows), len(fjRows))
	}
	if fjPlan.Find("FilterJoin") != nil {
		p := datagen.DefaultUDR()
		if fjCalls > p.NDept {
			t.Errorf("filter join made %d calls, more than %d distinct departments", fjCalls, p.NDept)
		}
		if plainCalls > 0 && fjCalls > plainCalls {
			t.Errorf("filter join (%d calls) should not exceed the plain plan (%d calls)", fjCalls, plainCalls)
		}
	}
}

// TestBloomVariant checks that the lossy Bloom filter representation
// yields identical results (the final join re-checks the predicate).
func TestBloomVariant(t *testing.T) {
	cat, err := datagen.DistCatalog(datagen.DefaultDist())
	if err != nil {
		t.Fatal(err)
	}
	exactRows, _, _ := optimizeAndRun(t, cat, datagen.DistBaseQuery(), true, core.Options{})
	bloomRows, _, _ := optimizeAndRun(t, cat, datagen.DistBaseQuery(), true, core.Options{Bloom: true, BloomBitsPerEntry: 6})
	if !slices.Equal(exactRows, bloomRows) {
		t.Fatalf("bloom variant changed results: %d vs %d rows", len(exactRows), len(bloomRows))
	}
}

// TestStoredFilterJoin enables the local semi-join (§5.3) and checks
// correctness on a plain two-table join.
func TestStoredFilterJoin(t *testing.T) {
	cat := fig1DB(t, 8000, 200, 0.2, 0.05)
	q := &query.Block{
		Rels: []query.RelRef{
			{Name: "Dept", Alias: "D"},
			{Name: "Emp", Alias: "E"},
		},
		Preds: datagenLocalJoinPreds(),
	}
	plainRows, _, _ := optimizeAndRun(t, cat, q, false, core.Options{})
	fjRows, _, _ := optimizeAndRun(t, cat, q, true, core.Options{IncludeStored: true})
	if len(plainRows) == 0 {
		t.Fatal("no rows")
	}
	if !slices.Equal(plainRows, fjRows) {
		t.Fatalf("results differ: plain=%d fj=%d", len(plainRows), len(fjRows))
	}
}

// datagenLocalJoinPreds: D.did = E.did AND D.budget > 100000 over layout
// D:[0,1] E:[2..5].
func datagenLocalJoinPreds() []expr.Expr {
	return []expr.Expr{
		expr.Eq(expr.NewCol(0, "D.did"), expr.NewCol(3, "E.did")),
		expr.NewCmp(expr.GT, expr.NewCol(1, "D.budget"), expr.Int(100000)),
	}
}

// TestRemoteViewFiltersBeforeShipping: a Filter Join over a remote view
// restricts the view at its site and applies the view's local predicate
// there too, so only qualifying rows ship back — the order the estimate
// (restrictRows includes LocalSel) assumes. The Filter Join's own network
// bill is then exactly F's bytes out plus qualifying rows × row width
// back, in two messages.
func TestRemoteViewFiltersBeforeShipping(t *testing.T) {
	cat, err := datagen.DistCatalog(datagen.DefaultDist())
	if err != nil {
		t.Fatal(err)
	}
	cust, err := cat.Get("Customer")
	if err != nil {
		t.Fatal(err)
	}
	fKeys := 0 // distinct C.ckey with C.segment = 1: the filter set
	for _, r := range cust.Table.Rows() {
		if r[1].Int() == 1 {
			fKeys++
		}
	}
	view, err := cat.Get("OrderTotals")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := view.Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, min := range []int64{25, 15} {
		q := datagen.DistQuery()
		q.Preds = append(q.Preds, expr.NewCmp(expr.GT, expr.NewCol(4, "T.norders"), expr.Int(min)))
		o := opt.New(cat, cost.DefaultModel())
		o.Register(core.NewMethod(core.Options{}))
		p, err := o.OptimizeBlock(q)
		if err != nil {
			t.Fatal(err)
		}
		if fj := p.Find("FilterJoin"); fj == nil || fj.Extra.(*core.Choice).Repr != core.ReprExact {
			t.Fatalf("norders > %d: premise broken, want an exact Filter Join:\n%s", min, plan.Format(p, o.Model))
		}
		ctx := exec.NewContext()
		rows, err := exec.Drain(ctx, p.Make())
		if err != nil {
			t.Fatal(err)
		}
		// The first FilterJoin opened is the plan's; the restricted view
		// plans its own over the remote Orders at run time.
		var self cost.Counter
		for _, st := range ctx.OperatorStats() {
			if st.Label == "FilterJoin" {
				self = st.Self()
				break
			}
		}
		// Each qualifying view row joins its one customer.
		want := int64(fKeys*8 + len(rows)*vs.RowWidth())
		if self.NetBytes != want || self.NetMsgs != 2 {
			t.Errorf("norders > %d: the Filter Join shipped %d bytes in %d messages, want %d (F %d keys × 8 + %d rows × %d) in 2",
				min, self.NetBytes, self.NetMsgs, want, fKeys, len(rows), vs.RowWidth())
		}
	}
}
