package core_test

import (
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
)

// filterJoinPlan optimizes b with the Filter Join registered on a fresh
// optimizer — so its nodes' restricted sub-plan caches start empty — and
// returns the plan, its first FilterJoin node and the method. disabled
// names the competing join methods to turn off where the Filter Join
// would not win on cost alone.
func filterJoinPlan(t testing.TB, cat *catalog.Catalog, b *query.Block, opts core.Options, disabled ...string) (*plan.Node, *plan.Node, *core.Method) {
	t.Helper()
	o := opt.New(cat, cost.DefaultModel())
	for _, m := range disabled {
		o.Disabled[m] = true
	}
	m := core.NewMethod(opts)
	o.Register(m)
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	fj := p.Find("FilterJoin")
	if fj == nil {
		t.Fatalf("no FilterJoin in the plan:\n%s", plan.Format(p, cost.DefaultModel()))
	}
	return p, fj, m
}

// TestFilterJoinSchemaMatchesEmittedRows pins filterJoinOp.Schema — the
// plan node's OutSchema, captured at plan time — to the join that
// actually emits the rows, for every inner kind and for aliased and
// unaliased inners: same width and column types as that join's schema
// and as the rows themselves. (Labels are the plan's: a magic-rewritten
// view body names its columns after its own relations, not the alias.)
func TestFilterJoinSchemaMatchesEmittedRows(t *testing.T) {
	dist := func() *catalog.Catalog {
		cat, err := datagen.DistCatalog(datagen.DefaultDist())
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}
	udrCat, _, err := datagen.UDRCatalog(datagen.DefaultUDR())
	if err != nil {
		t.Fatal(err)
	}
	unaliased := fig1Query()
	unaliased.Rels[2].Alias = ""
	cases := []struct {
		name     string
		cat      *catalog.Catalog
		q        *query.Block
		opts     core.Options
		disabled []string
	}{
		{"view/aliased", fig1DB(t, 20000, 400, 0.2, 0.03), fig1Query(), core.Options{}, nil},
		{"view/unaliased", fig1DB(t, 20000, 400, 0.2, 0.03), unaliased, core.Options{}, nil},
		{"base/aliased", fig1DB(t, 8000, 200, 0.2, 0.05), &query.Block{
			Rels:  []query.RelRef{{Name: "Dept", Alias: "D"}, {Name: "Emp", Alias: "E"}},
			Preds: datagenLocalJoinPreds(),
		}, core.Options{IncludeStored: true}, []string{"hash", "merge", "nlj", "indexnl"}},
		{"remote-base", dist(), datagen.DistBaseQuery(), core.Options{}, []string{"hash", "merge", "nlj", "fetchmatches"}},
		{"remote-view", dist(), datagen.DistQuery(), core.Options{}, nil},
		{"function", udrCat, datagen.UDRQuery(), core.Options{}, []string{"funcprobe", "funcprobememo"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, fj, _ := filterJoinPlan(t, tc.cat, tc.q, tc.opts, tc.disabled...)
			op := fj.Make()
			got := op.Schema()
			if !got.Equal(fj.OutSchema) {
				t.Errorf("Schema() = %s, plan node OutSchema = %s", got, fj.OutSchema)
			}
			ctx := exec.NewContext()
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			emitted := core.EmittedSchema(op)
			if got.Len() != emitted.Len() {
				t.Fatalf("Schema() = %s, rows come from a join with schema %s", got, emitted)
			}
			for i := 0; i < got.Len(); i++ {
				if got.Col(i).Type != emitted.Col(i).Type {
					t.Errorf("column %d: Schema() says %s, the emitting join %s", i, got.Col(i).Type, emitted.Col(i).Type)
				}
			}
			var b exec.Batch
			if err := op.NextBatch(ctx, &b, 1024); err != nil {
				t.Fatal(err)
			}
			if len(b.Rows) == 0 {
				t.Fatal("no rows; workload degenerate")
			}
			for _, r := range b.Rows {
				if len(r) != got.Len() {
					t.Fatalf("row width %d, schema %s", len(r), got)
				}
				for i, v := range r {
					if !v.IsNull() && v.Kind() != got.Col(i).Type {
						t.Fatalf("column %d holds a %s, schema says %s", i, v.Kind(), got.Col(i).Type)
					}
				}
			}
			op.Close(ctx)
		})
	}
}
