package opt

import (
	"slices"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/value"
)

// fanOutJoin is the self-join A ⋈ A2 on k: 2000 rows × fan-out 20 =
// 40000 output rows, so sorting the output dwarfs sorting the inputs
// and an order-preserving merge join should win once the final Sort can
// be elided. Layout A:[0,1] A2:[2,3].
func fanOutJoin(orderBy ...query.OrderItem) *query.Block {
	return &query.Block{
		Rels: []query.RelRef{{Name: "A"}, {Name: "A", Alias: "A2"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "A.k"), expr.NewCol(2, "A2.k")),
		},
		OrderBy: orderBy,
	}
}

// assertOrdered fails unless rows are sorted on the given ORDER BY items
// (positions index the rows' own layout).
func assertOrdered(t *testing.T, rows []value.Row, items []query.OrderItem) {
	t.Helper()
	for i := 1; i < len(rows); i++ {
		for _, oi := range items {
			c := value.Compare(rows[i-1][oi.Col], rows[i][oi.Col])
			if oi.Desc {
				c = -c
			}
			if c < 0 {
				break
			}
			if c > 0 {
				t.Fatalf("row %d out of order on output column %d (desc=%v): %v then %v",
					i, oi.Col, oi.Desc, rows[i-1], rows[i])
			}
		}
	}
}

// TestOrderDifferentialMemoOnOff runs ORDER BY queries with the
// property memo on and off: both must return SQL's answer (sqlref), in
// the requested order.
func TestOrderDifferentialMemoOnOff(t *testing.T) {
	cat := buildCat(t)
	queries := []struct {
		name string
		b    func() *query.Block
	}{
		{"fanout-orderby-key", func() *query.Block {
			return fanOutJoin(query.OrderItem{Col: 0})
		}},
		{"fanout-orderby-desc", func() *query.Block {
			return fanOutJoin(query.OrderItem{Col: 0, Desc: true})
		}},
		{"fanout-orderby-two-keys", func() *query.Block {
			return fanOutJoin(query.OrderItem{Col: 0}, query.OrderItem{Col: 1})
		}},
		{"join-orderby-nonkey", func() *query.Block {
			b := joinAB()
			b.OrderBy = []query.OrderItem{{Col: 1}}
			return b
		}},
		{"orderby-with-limit", func() *query.Block {
			b := fanOutJoin(query.OrderItem{Col: 0})
			b.Limit = 17
			return b
		}},
		{"groupby-orderby", func() *query.Block {
			b := fanOutJoin()
			b.GroupBy = []int{0}
			b.Aggs = []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}}
			b.OrderBy = []query.OrderItem{{Col: 0}}
			return b
		}},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			var answers [][]value.Row // memo on, then off
			for _, disable := range []bool{false, true} {
				o := New(cat, cost.DefaultModel())
				o.DisableOrderProps = disable
				p, err := o.OptimizeBlock(q.b())
				if err != nil {
					t.Fatal(err)
				}
				rows, _ := runNode(t, p)
				answers = append(answers, rows)
			}
			if err := sqlref.Check(cat, q.b(), answers...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSortElisionBeatsResort pins the headline property: on the fan-out
// join the order-aware optimizer emits a plan with no Sort at all, and
// both its estimated and its measured cost are strictly lower than the
// property-blind plan's.
func TestSortElisionBeatsResort(t *testing.T) {
	cat := buildCat(t)
	model := cost.DefaultModel()

	aware := New(cat, model)
	pAware, err := aware.OptimizeBlock(fanOutJoin(query.OrderItem{Col: 0}))
	if err != nil {
		t.Fatal(err)
	}
	blind := New(cat, model)
	blind.DisableOrderProps = true
	pBlind, err := blind.OptimizeBlock(fanOutJoin(query.OrderItem{Col: 0}))
	if err != nil {
		t.Fatal(err)
	}

	if s := pAware.Find("Sort"); s != nil {
		t.Fatalf("order-aware plan still sorts:\n%s", plan.Format(pAware, model))
	}
	if s := pBlind.Find("Sort"); s == nil {
		t.Fatalf("property-blind plan must re-sort:\n%s", plan.Format(pBlind, model))
	}
	if pAware.Total(model) >= pBlind.Total(model) {
		t.Errorf("estimated cost must drop with elision: aware=%.2f blind=%.2f",
			pAware.Total(model), pBlind.Total(model))
	}

	rowsAware, cAware := runNode(t, pAware)
	rowsBlind, cBlind := runNode(t, pBlind)
	if model.Total(cAware) >= model.Total(cBlind) {
		t.Errorf("measured cost must drop with elision: aware=%.1f blind=%.1f",
			model.Total(cAware), model.Total(cBlind))
	}
	assertOrdered(t, rowsAware, []query.OrderItem{{Col: 0}})
	if !slices.Equal(sqlref.Canon(rowsAware), sqlref.Canon(rowsBlind)) {
		t.Error("elision changed the result multiset")
	}
}

// TestForcedOrderSharesElisionPath verifies OptimizeBlockWithOrder goes
// through the same property-keeping code: the forced-order plan of the
// fan-out join elides the Sort too and returns identical, ordered rows.
func TestForcedOrderSharesElisionPath(t *testing.T) {
	cat := buildCat(t)
	model := cost.DefaultModel()
	o := New(cat, model)
	free, err := o.OptimizeBlock(fanOutJoin(query.OrderItem{Col: 0}))
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{{0, 1}, {1, 0}} {
		forced, err := o.OptimizeBlockWithOrder(fanOutJoin(query.OrderItem{Col: 0}), perm)
		if err != nil {
			t.Fatal(err)
		}
		if forced.Find("Sort") != nil {
			t.Errorf("forced order %v missed sort elision:\n%s", perm, plan.Format(forced, model))
		}
		rows, _ := runNode(t, forced)
		assertOrdered(t, rows, []query.OrderItem{{Col: 0}})
		rowsFree, _ := runNode(t, free)
		if !slices.Equal(sqlref.Canon(rows), sqlref.Canon(rowsFree)) {
			t.Errorf("forced order %v changed results", perm)
		}
	}
}

// TestStreamAggregationOnOrderedInput: grouping on the join key above an
// order-preserving merge join should stream instead of hash, and keep
// the group order so the ORDER BY on top is elided as well. The join
// method is pinned to merge (for a 100-group output the final sort is
// tiny, so the hash plan would honestly win a free competition).
func TestStreamAggregationOnOrderedInput(t *testing.T) {
	cat := buildCat(t)
	model := cost.DefaultModel()
	b := func() *query.Block {
		blk := fanOutJoin(query.OrderItem{Col: 0})
		blk.GroupBy = []int{0}
		blk.Aggs = []expr.AggSpec{
			{Kind: expr.AggCount, Name: "n"},
			{Kind: expr.AggMax, Arg: expr.NewCol(1, "A.v"), Name: "mx"},
		}
		return blk
	}
	mergeOnly := func(o *Optimizer) {
		for _, m := range []string{"hash", "nlj", "indexnl"} {
			o.Disabled[m] = true
		}
	}
	o := New(cat, model)
	mergeOnly(o)
	p, err := o.OptimizeBlock(b())
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("StreamGroupBy") == nil || p.Find("Sort") != nil {
		t.Fatalf("expected streamed aggregation with elided sort:\n%s", plan.Format(p, model))
	}
	rows, _ := runNode(t, p)
	blind := New(cat, model)
	mergeOnly(blind)
	blind.DisableOrderProps = true
	p2, err := blind.OptimizeBlock(b())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Find("StreamGroupBy") != nil {
		t.Fatal("property-blind optimizer must hash-aggregate")
	}
	rows2, _ := runNode(t, p2)
	if !slices.Equal(sqlref.Canon(rows), sqlref.Canon(rows2)) {
		t.Error("streamed aggregation changed results")
	}
	assertOrdered(t, rows, []query.OrderItem{{Col: 0}})
}

// TestMemoKeepsSecondBestOrderedPlan peeks at the DP table: the full
// subset of the fan-out join must hold both an unordered cheapest entry
// and a pricier ordered one, which is the whole point of the
// property-aware memo.
func TestMemoKeepsSecondBestOrderedPlan(t *testing.T) {
	cat := buildCat(t)
	o := New(cat, cost.DefaultModel())
	ctx, err := o.newCtx(fanOutJoin(query.OrderItem{Col: 0}), nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := o.runDP(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ordered, unordered bool
	for _, k := range sortedProps(tbl) {
		if len(tbl[k].prop) > 0 {
			ordered = true
		} else {
			unordered = true
		}
	}
	if !ordered || !unordered {
		t.Errorf("full subset should retain ordered and unordered entries, got props %v", sortedProps(tbl))
	}
}
