package magic_test

import (
	"sort"
	"strings"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/magic"
	"filterjoin/internal/opt"
	"filterjoin/internal/query"
)

func run(t *testing.T, cat *catalog.Catalog, b *query.Block) []string {
	t.Helper()
	o := opt.New(cat, cost.DefaultModel())
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, p.Make())
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func fig1Cat(t *testing.T) *catalog.Catalog {
	t.Helper()
	p := datagen.DefaultFig1()
	p.NEmp, p.NDept = 4000, 100
	cat, err := datagen.Fig1Catalog(p)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestRewriteEquivalence: the classic magic rewriting must preserve
// query results for every legal SIPS, leave the caller's catalog as it
// was, and name its views clear of the relations already there.
func TestRewriteEquivalence(t *testing.T) {
	cat := fig1Cat(t)
	cat.AddView("PartialResult", datagen.Fig1Query())
	cat.AddView("Filter", datagen.Fig1Query())
	names := strings.Join(cat.Names(), ",")
	want := run(t, cat, datagen.Fig1Query())
	if len(want) == 0 {
		t.Fatal("fig1 query returned no rows")
	}

	// SIPS variants from Fig 3: {E,D} (orders 1-2), {E} (order 4), and
	// {D} (order 3, bound through the transitive closure of
	// E.did=D.did ∧ E.did=V.did).
	for _, tc := range []struct {
		name string
		sips []int
		ok   bool
	}{
		{"E_and_D", []int{0, 1}, true},
		{"E_only", []int{0}, true},
		{"D_only", []int{1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rw, err := magic.Rewrite(cat, datagen.Fig1Query(), 2, tc.sips)
			if !tc.ok {
				if err == nil {
					t.Fatal("expected rewrite to fail (no binding predicate)")
				}
				return
			}
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			if got := strings.Join(cat.Names(), ","); got != names {
				t.Fatalf("rewrite changed the caller's catalog: %s, want %s", got, names)
			}
			if rw.PartialResult != "PartialResult_1" || rw.FilterView != "Filter_1" {
				t.Fatalf("views %s, %s shadow or skip past the catalog's relations", rw.PartialResult, rw.FilterView)
			}
			got := run(t, rw.Cat, rw.Final)
			if len(got) != len(want) {
				t.Fatalf("rewritten query row count %d, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestRewriteAggregatedTopQuery rewrites a query whose top level itself
// aggregates: group-by columns and aggregate arguments must remap into
// the rewritten block correctly.
func TestRewriteAggregatedTopQuery(t *testing.T) {
	cat := fig1Cat(t)
	// SELECT E.did, COUNT(*) FROM Emp E, Dept D, DepAvgSal V
	// WHERE joins AND E.sal > V.avgsal AND D.budget > 100000 GROUP BY E.did
	top := datagen.Fig1Query()
	top.Proj = nil
	top.GroupBy = []int{1}
	top.Aggs = []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}}

	want := run(t, cat, top)
	if len(want) == 0 {
		t.Fatal("no groups")
	}
	rw, err := magic.Rewrite(cat, top, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	got := run(t, rw.Cat, rw.Final)
	if len(got) != len(want) {
		t.Fatalf("groups: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("group %d: %s vs %s", i, got[i], want[i])
		}
	}
}

// TestRewriteSQLRendering checks the Fig 2 style SQL text.
func TestRewriteSQLRendering(t *testing.T) {
	cat := fig1Cat(t)
	rw, err := magic.Rewrite(cat, datagen.Fig1Query(), 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	text, err := rw.SQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"CREATE VIEW PartialResult AS", "CREATE VIEW Filter AS",
		"CREATE VIEW RestrictedDepAvgSal AS", "SELECT DISTINCT", "GROUP BY",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered SQL missing %q:\n%s", want, text)
		}
	}
}

// TestRenderBlockRoundTrip renders the Fig 1 query and checks the key
// clauses survive.
func TestRenderBlockRoundTrip(t *testing.T) {
	cat := fig1Cat(t)
	text, err := magic.RenderBlock(cat, datagen.Fig1Query())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SELECT", "FROM Emp E, Dept D, DepAvgSal V", "E.did = D.did", "E.sal > V.avgsal"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered block missing %q:\n%s", want, text)
		}
	}
}
