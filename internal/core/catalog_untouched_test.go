package core_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/opt"
	"filterjoin/internal/query"
)

// TestPlanningLeavesCatalogUntouched: an optimization reads the catalog
// and writes nothing, so forks share the catalog itself. Goroutines each
// fork one optimizer and plan Fig 1 (a view coster's nested
// optimizations, then the restricted view planned at run time), a view
// over a view, and a block whose coster fails halfway; the catalog's
// names are the same afterwards. Run under -race.
func TestPlanningLeavesCatalogUntouched(t *testing.T) {
	cat := fig1DB(t, 2000, 50, 0.25, 0.1)
	cat.AddView("HighAvg", &query.Block{
		Rels:  []query.RelRef{{Name: "DepAvgSal"}},
		Preds: []expr.Expr{expr.NewCmp(expr.GT, expr.NewCol(1, "DepAvgSal.avgsal"), expr.Float(2000))},
	})
	// Three relations in the body: restricting it takes a four-relation
	// block, one more than the failing fork below allows.
	cat.AddView("Wide", &query.Block{
		Rels: []query.RelRef{{Name: "Emp", Alias: "E1"}, {Name: "Dept"}, {Name: "Emp", Alias: "E2"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(1, "E1.did"), expr.NewCol(4, "Dept.did")),
			expr.Eq(expr.NewCol(4, "Dept.did"), expr.NewCol(7, "E2.did")),
		},
		Proj: []query.Output{{Expr: expr.NewCol(4, "Dept.did"), Name: "did"}},
	})
	overView := func(view string) *query.Block {
		return &query.Block{
			Rels: []query.RelRef{{Name: "Dept", Alias: "D"}, {Name: view, Alias: "V"}},
			Preds: []expr.Expr{
				expr.Eq(expr.NewCol(0, "D.did"), expr.NewCol(2, "V.did")),
				expr.NewCmp(expr.GT, expr.NewCol(1, "D.budget"), expr.Int(100000)),
			},
		}
	}

	o := opt.New(cat, cost.DefaultModel())
	o.Register(core.NewMethod(core.Options{}))
	before := cat.Names()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := o.Fork()
			if f.Cat != o.Cat {
				t.Error("Fork copied the catalog")
			}
			p, err := f.OptimizeBlock(fig1Query())
			if err != nil {
				t.Errorf("fig 1: %v", err)
				return
			}
			if p.Find("FilterJoin") == nil {
				t.Error("fig 1 should plan a Filter Join (and so build a view coster)")
			}
			if _, err := exec.Drain(exec.NewContext(), p.Make()); err != nil {
				t.Errorf("running fig 1: %v", err)
			}
			if _, err := f.OptimizeBlock(overView("HighAvg")); err != nil {
				t.Errorf("view over view: %v", err)
			}
			f.MaxRelations = 3
			if _, err := f.OptimizeBlock(overView("Wide")); err == nil || !strings.Contains(err.Error(), "sampling restricted view Wide") {
				t.Errorf("restricting Wide needs four relations, so its coster must fail under MaxRelations=3; got %v", err)
			}
		}()
	}
	wg.Wait()

	if after := cat.Names(); !reflect.DeepEqual(after, before) {
		t.Errorf("planning changed the catalog:\nbefore %v\nafter  %v", before, after)
	}
}
