package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/plan"
	"filterjoin/internal/schema"
	"filterjoin/internal/sql"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// jitterDraws is how many jittered replans each corpus block gets.
const jitterDraws = 12

// TestJitterKeepsPlans checks that no plan choice rests on rounding
// noise. cost.TotalHook moves every estimate total up by 0-4 ulps,
// drawn afresh per total, and each corpus block is planned again under
// jitterDraws such draws. Each replan must render as the unjittered
// plan, and its search must count the same plans and subsets. The
// render is taken with the hook off, since a moved total can round the
// other way in a two-decimal cost. A dominance or access-path test
// written as a raw float comparison flips on a near-tie and fails here;
// the ε helpers of cost/compare.go do not.
//
// The corpus is the sweep's fuzz corpora at full size, its planned
// extras, Fig 1 at E6's big-department fractions, the bench's cold
// shapes, and one tie fixture per comparison site no corpus brings to
// a tie (see tieFixtures).
func TestJitterKeepsPlans(t *testing.T) {
	corpus := append(rowCorpus(t, 60), distCorpus(t, 30)...)
	for _, x := range lifecycleExtras(t) {
		if x.optimize != nil {
			corpus = append(corpus, x.fuzzPlan)
		}
	}
	corpus = append(corpus, fig1Corpus(t)...)
	corpus = append(corpus, tieFixtures(t)...)
	for _, fp := range corpus {
		_, want, err := fp.optimize(fp.block)
		if err != nil {
			t.Fatalf("%s: %v", fp.key, err)
		}
		render := plan.Format(fp.plan, cost.DefaultModel())
		h := fnv.New64a()
		h.Write([]byte(fp.key))
		for d := 0; d < jitterDraws; d++ {
			cost.TotalHook = jitter(int64(h.Sum64()) + int64(d))
			p, got, err := fp.optimize(fp.block)
			cost.TotalHook = nil
			if err != nil {
				t.Fatalf("%s, draw %d: %v", fp.key, d, err)
			}
			if r := plan.Format(p, cost.DefaultModel()); r != render {
				t.Fatalf("%s: draw %d moved the plan:\n%s\nunjittered:\n%s", fp.key, d, r, render)
			}
			if got != want {
				t.Fatalf("%s: draw %d searched differently: %+v, unjittered %+v", fp.key, d, got, want)
			}
		}
	}
}

// jitter returns a total hook that adds 0-4 ulps, drawn from seed, to
// every total. Planning is single-threaded, so the source needs no lock.
// The seed comes from the corpus key, so a block's draws do not move
// when the corpus grows.
func jitter(seed int64) func(float64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return func(x float64) float64 {
		for k := rng.Intn(5); k > 0; k-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		return x
	}
}

// fig1Corpus is the Fig 1 query planned the way E6 plans it, with the
// Filter Join competing, at each of E6's big-department fractions, and
// the bench's plan_cold shapes over the default Fig 1 catalog.
func fig1Corpus(t *testing.T) []fuzzPlan {
	t.Helper()
	var out []fuzzPlan
	for _, frac := range []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0} {
		p := datagen.DefaultFig1()
		p.BigFrac = frac
		cat, err := datagen.Fig1Catalog(p)
		if err != nil {
			t.Fatal(err)
		}
		optimize := planner(cat, cost.DefaultModel(), &core.Options{})
		out = append(out, planned(t, fmt.Sprintf("fig1/big=%g", frac), cat, datagen.Fig1Query(), optimize))
		if frac != datagen.DefaultFig1().BigFrac {
			continue
		}
		for depts := 1; depts <= 5; depts++ {
			for _, view := range []bool{false, true} {
				key := fmt.Sprintf("cold/depts=%d/view=%v", depts, view)
				out = append(out, planned(t, key, cat, datagen.ColdShape(depts, view), optimize))
			}
		}
	}
	return out
}

// tieSite is one comparison site that no corpus brings to a near-tie.
// Moving one weight of the default model from lo to hi makes the site
// switch alternatives; compared returns, from a plan, the estimate of
// the alternative the site took.
type tieSite struct {
	name     string
	weight   func(*cost.Model) *float64
	lo, hi   float64
	cat      *catalog.Catalog
	text     string
	fj       *core.Options
	disabled []string
	compared func(*testing.T, *plan.Node) cost.Estimate
}

// tieFixtures brings each tieSite to a tie: it solves for the weight
// at which the two alternatives' totals agree within cost.Eps, and
// steps it by ulps until the raw totals differ by as little as they
// can. A raw comparison there decides on the low bits, which jitter
// moves; the ε helpers call it a tie and keep the first alternative.
func tieFixtures(t *testing.T) []fuzzPlan {
	t.Helper()
	var out []fuzzPlan
	for _, s := range tieSites(t) {
		st, err := sql.Parse(s.text)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sql.BindSelect(s.cat, st.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		model := func(w float64) cost.Model {
			m := cost.DefaultModel()
			*s.weight(&m) = w
			return m
		}
		at := func(w float64) fuzzPlan {
			return planned(t, "tie/"+s.name, s.cat, b, planner(s.cat, model(w), s.fj, s.disabled...))
		}
		a, c := s.compared(t, at(s.lo).plan), s.compared(t, at(s.hi).plan)
		if a == c {
			t.Fatalf("tie/%s: the site took the same alternative at both ends: %s", s.name, a)
		}
		diff := func(w float64) float64 { return model(w).TotalEstimate(a) - model(w).TotalEstimate(c) }
		dl, dh := diff(s.lo), diff(s.hi)
		w, best := s.lo+(s.hi-s.lo)*dl/(dl-dh), math.Inf(1)
		for k, up, down := 0, w, w; k < 64; k++ {
			for _, x := range []float64{up, down} {
				if d := math.Abs(diff(x)); d > 0 && d < best {
					best, w = d, x
				}
			}
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
		}
		fp := at(w)
		ta, tc := model(w).TotalEstimate(a), model(w).TotalEstimate(c)
		if ta == tc || !cost.ApproxEq(ta, tc) {
			t.Fatalf("tie/%s: weight %v prices the alternatives %v and %v; want a tie within ε", s.name, w, ta, tc)
		}
		if got := s.compared(t, fp.plan); got != a && got != c {
			t.Fatalf("tie/%s: at the tie the site took %s, neither %s nor %s", s.name, got, a, c)
		}
		t.Logf("tie/%s: weight %v prices the alternatives %v and %v", s.name, w, ta, tc)
		out = append(out, fp)
	}
	return out
}

// tieSites are the four sites: the access path of a leaf with an
// equality predicate on an indexed column (opt/ctx.go, buildStoredLeaf)
// and of a Filter Join's restricted stored inner (core/filterjoin.go,
// price), both index probe vs scan under the CPUTuple weight; whether a
// Filter Join materializes its production set or runs it again
// (filterjoin.go, price), under PageWrite; and the final choice between
// a plan sorted for ORDER BY and one already in order (opt/dp.go,
// finishBest), under CPUTuple.
func tieSites(t *testing.T) []tieSite {
	t.Helper()
	cpu := func(m *cost.Model) *float64 { return &m.CPUTuple }
	pageWrite := func(m *cost.Model) *float64 { return &m.PageWrite }
	leaf := func(t *testing.T, p *plan.Node) cost.Estimate {
		for _, kind := range []string{"IndexLookup", "TableScan"} {
			if n := p.Find(kind); n != nil {
				return n.Est
			}
		}
		t.Fatalf("no leaf access in\n%s", plan.Format(p, cost.DefaultModel()))
		return cost.Estimate{}
	}
	choice := func(t *testing.T, p *plan.Node) *core.Choice {
		n := p.Find("FilterJoin")
		if n == nil {
			t.Fatalf("no Filter Join in\n%s", plan.Format(p, cost.DefaultModel()))
		}
		return n.Extra.(*core.Choice)
	}
	root := func(_ *testing.T, p *plan.Node) cost.Estimate { return p.Est }

	cat := catalog.New()
	// T.k has two values in 2000 rows: an index lookup reads every page
	// and one more, a scan reads each page but charges more CPU.
	cat.AddTable(tieTable(t, "T", 2000, 2, true))
	// O.v < 2 keeps 2% of O, whose keys restrict S.
	cat.AddTable(tieTable(t, "O", 20000, 1000, false))
	cat.AddTable(tieTable(t, "S", 20000, 1000, true))
	// Two rows of P joined to S: nested loops rescan S twice, a merge
	// join sorts S once.
	cat.AddTable(tieTable(t, "P", 2, 1000, false))
	fjOnly := []string{"hash", "merge", "nlj", "indexnl"}
	stored := &core.Options{IncludeStored: true}
	return []tieSite{
		{name: "leaf-index-vs-scan", weight: cpu, lo: 1e-6, hi: 1, cat: cat,
			text: `SELECT T.v FROM T WHERE T.k = 1`, compared: leaf},
		{name: "restrict-index-vs-scan", weight: cpu, lo: 1e-6, hi: 1, cat: cat, fj: stored, disabled: fjOnly,
			text:     `SELECT O.v, S.v FROM O, S WHERE O.k = S.k AND O.v < 2`,
			compared: func(t *testing.T, p *plan.Node) cost.Estimate { return choice(t, p).Components.FilterCostRk }},
		{name: "materialize-vs-rerun", weight: pageWrite, lo: 0, hi: 1e4, cat: cat, fj: stored, disabled: fjOnly,
			text:     `SELECT O.v, S.v FROM O, S WHERE O.k = S.k AND O.v < 2`,
			compared: func(t *testing.T, p *plan.Node) cost.Estimate { return choice(t, p).Components.ProductionCostP }},
		{name: "sorted-vs-ordered", weight: cpu, lo: 1e-6, hi: 1, cat: cat, disabled: []string{"hash", "indexnl"},
			text: `SELECT P.k, S.v FROM P, S WHERE P.k = S.k ORDER BY P.k`, compared: root},
	}
}

// tieTable is a table name(k, v) of rows rows, k cycling through keys
// values and v through 0..99, with an index on k when indexed.
func tieTable(t *testing.T, name string, rows, keys int, indexed bool) *storage.Table {
	t.Helper()
	tb := storage.NewTable(name, schema.New(
		schema.Column{Table: name, Name: "k", Type: value.KindInt},
		schema.Column{Table: name, Name: "v", Type: value.KindInt},
	))
	for i := 0; i < rows; i++ {
		tb.MustInsert(value.NewInt(int64(i%keys)), value.NewInt(int64(i*37%100)))
	}
	if indexed {
		if _, err := tb.CreateIndex(name+"_k", []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}
