package filterjoin_test

import (
	"fmt"
	"strings"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/sql"
)

// twoClassSQL joins three relations under two equality classes (x and
// y), each closed transitively into a derived A-C predicate.
const twoClassSQL = `SELECT A.x FROM A, B, C WHERE A.x = B.x AND B.x = C.x AND A.y = B.y AND B.y = C.y`

// twoClassDB holds three 50-row two-int tables for twoClassSQL.
func twoClassDB(t testing.TB) *filterjoin.DB {
	t.Helper()
	db := filterjoin.Open(filterjoin.Config{})
	var script strings.Builder
	for k, name := range []string{"A", "B", "C"} {
		fmt.Fprintf(&script, "CREATE TABLE %s (x int, y int);\nINSERT INTO %s VALUES ", name, name)
		for i := 0; i < 50; i++ {
			if i > 0 {
				script.WriteString(", ")
			}
			fmt.Fprintf(&script, "(%d, %d)", i%(10+k), i%(7+k))
		}
		script.WriteString(";\n")
	}
	if err := db.ExecScript(script.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTwoEqualityClassesPlanDeterministically: the predicates closure
// derives for two equality classes come in one order, so a fresh engine
// always prints the same key order (and plan) for the same query.
func TestTwoEqualityClassesPlanDeterministically(t *testing.T) {
	var first string
	for i := 0; i < 50; i++ {
		got, err := twoClassDB(t).Explain(twoClassSQL)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("engine %d planned differently:\n%s\nengine 0:\n%s", i, got, first)
		}
	}
}

// searchCase is one block of the traced/untraced corpus over its
// catalog.
type searchCase struct {
	name  string
	cat   *catalog.Catalog
	block *query.Block
}

func bindSQL(t *testing.T, cat *catalog.Catalog, text string) *query.Block {
	t.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sql.BindSelect(cat, st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func searchCorpus(t *testing.T) []searchCase {
	fig1, err := datagen.Fig1Catalog(datagen.Fig1Params{NEmp: 3000, NDept: 100, YoungFrac: 0.2, BigFrac: 0.1, Clustered: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := datagen.DistCatalog(datagen.DistParams{NCustomers: 500, NOrders: 5000, SegFrac: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	two := twoClassDB(t).Catalog()
	cases := []searchCase{
		{"fig1", fig1, datagen.Fig1Query()},
		{"serving", fig1, bindSQL(t, fig1, `SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, Dept D2, DepAvgSal V `+
			`WHERE E.did = D.did AND E.did = D2.did AND E.did = V.did AND E.sal > V.avgsal `+
			`AND E.did = 7 AND E.age < 25 AND D.budget > 10000 AND D2.budget > 0`)},
		{"two-class", two, bindSQL(t, two, twoClassSQL)},
		{"fetch-matches", dist, datagen.DistBaseQuery()},
	}
	for depts := 1; depts <= 5; depts++ {
		for _, view := range []bool{false, true} {
			cases = append(cases, searchCase{fmt.Sprintf("cold-%d-%v", depts, view), fig1, datagen.ColdShape(depts, view)})
		}
	}
	return cases
}

// searchRun is what one optimization decided and counted.
type searchRun struct {
	plan string
	om   opt.Metrics
	cm   core.Metrics
	tr   *opt.CollectingTracer
}

// TestTracedSearchDecidesLikeUntraced: a tracer makes admission admit
// every candidate, so each one is built and traced — but keepCandidate
// still makes every decision, so the traced search keeps the same plans
// and counts the same work as the untraced one, which never builds a
// pruned candidate.
func TestTracedSearchDecidesLikeUntraced(t *testing.T) {
	configs := []struct {
		name    string
		noOrder bool
		fj      core.Options
		forced  bool
	}{
		{name: "default"},
		{name: "no-order-props", noOrder: true},
		{name: "fj-variants", fj: core.Options{PrefixProductionSets: true, AttrSubsets: true, Bloom: true, IncludeStored: true}},
		{name: "forced-order", forced: true},
	}
	for _, c := range searchCorpus(t) {
		for _, cfg := range configs {
			run := func(traced bool) searchRun {
				o := opt.New(c.cat, cost.DefaultModel())
				o.DisableOrderProps = cfg.noOrder
				m := core.NewMethod(cfg.fj)
				o.Register(m)
				var r searchRun
				if traced {
					r.tr = &opt.CollectingTracer{}
					o.Tracer = r.tr
				}
				var p *plan.Node
				var err error
				if cfg.forced {
					order := make([]int, len(c.block.Rels))
					for i := range order {
						order[i] = len(order) - 1 - i
					}
					p, err = o.OptimizeBlockWithOrder(c.block, order)
				} else {
					p, err = o.OptimizeBlock(c.block)
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", c.name, cfg.name, err)
				}
				r.plan, r.om, r.cm = plan.Format(p, o.Model), o.Metrics, m.Metrics
				return r
			}
			plain, traced := run(false), run(true)
			where := c.name + "/" + cfg.name
			if plain.plan != traced.plan {
				t.Errorf("%s: traced plan differs:\n%s\nuntraced:\n%s", where, traced.plan, plain.plan)
			}
			if plain.om != traced.om {
				t.Errorf("%s: opt.Metrics traced %+v, untraced %+v", where, traced.om, plain.om)
			}
			if plain.cm != traced.cm {
				t.Errorf("%s: core.Metrics traced %+v, untraced %+v", where, traced.cm, plain.cm)
			}
			var leaves, cands int64
			for _, ev := range traced.tr.Events {
				switch ev.Kind {
				case opt.EvLeaf:
					leaves++
				case opt.EvCandidate:
					cands++
				}
			}
			if cands != traced.om.PlansConsidered-leaves {
				t.Errorf("%s: %d candidate events, want PlansConsidered %d - %d leaves", where, cands, traced.om.PlansConsidered, leaves)
			}
		}
	}
}
