package exec_test

import (
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/udr"
	"filterjoin/internal/value"
)

// rebindTable builds an int table with columns k and v, indexed on k.
func rebindTable(t *testing.T, name string, rows [][2]int64) (*storage.Table, *storage.HashIndex) {
	t.Helper()
	tb := storage.NewTable(name, schema.New(
		schema.Column{Table: name, Name: "k", Type: value.KindInt},
		schema.Column{Table: name, Name: "v", Type: value.KindInt},
	))
	for _, r := range rows {
		tb.MustInsert(value.NewInt(r[0]), value.NewInt(r[1]))
	}
	ix, err := tb.CreateIndex(name+"_k", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	return tb, ix
}

// TestOperatorsRebindParamsOnReopen re-Opens every expression-holding
// operator under two bindings of one parameter, planned with the value 0.
// Each execution must answer exactly as a fresh operator built with the
// bound literal in the parameter's place: an operator that binds nothing
// answers for 0, and one that keeps its first binding answers for it
// again on the second Open.
func TestOperatorsRebindParamsOnReopen(t *testing.T) {
	l, _ := rebindTable(t, "l", [][2]int64{{1, 10}, {1, 11}, {2, 20}, {2, 21}, {3, 30}})
	r, rix := rebindTable(t, "r", [][2]int64{{1, 100}, {2, 200}, {2, 201}, {3, 300}})
	fn := catalog.New().AddFunc("f", schema.New(
		schema.Column{Table: "f", Name: "k", Type: value.KindInt},
		schema.Column{Table: "f", Name: "hundred", Type: value.KindInt},
	), []int{0}, func(args value.Row) ([]value.Row, error) {
		return []value.Row{{args[0], value.NewInt(args[0].Int() * 100)}}, nil
	}, nil, 1)

	scan := func() exec.Operator { return exec.NewTableScan(l, "") }
	plus := func(c expr.Expr) expr.Expr { return expr.Arith{Op: expr.Add, L: expr.NewCol(1, "v"), R: c} }
	// residual is l.v + inner's second column > c over l‖inner.
	residual := func(c expr.Expr) expr.Expr {
		return expr.NewCmp(expr.GT, expr.Arith{Op: expr.Add, L: expr.NewCol(1, "l.v"), R: expr.NewCol(3, "inner")}, c)
	}
	sum := func(c expr.Expr) []expr.AggSpec {
		return []expr.AggSpec{{Kind: expr.AggSum, Arg: plus(c), Name: "s"}}
	}
	cases := []struct {
		name  string
		binds [2]int64
		mk    func(c expr.Expr) exec.Operator
	}{
		{"Select", [2]int64{10, 20}, func(c expr.Expr) exec.Operator {
			return exec.NewSelect(scan(), expr.NewCmp(expr.GT, expr.NewCol(1, "v"), c))
		}},
		{"Project", [2]int64{1, 2}, func(c expr.Expr) exec.Operator {
			return exec.NewProject(scan(), []expr.Expr{expr.NewCol(0, "k"), plus(c)},
				schema.New(schema.Column{Name: "k", Type: value.KindInt}, schema.Column{Name: "v1", Type: value.KindInt}))
		}},
		{"GroupBy", [2]int64{1, 2}, func(c expr.Expr) exec.Operator {
			return exec.NewGroupBy(scan(), []int{0}, sum(c))
		}},
		{"StreamGroupBy", [2]int64{1, 2}, func(c expr.Expr) exec.Operator {
			return exec.NewStreamGroupBy(scan(), []int{0}, sum(c))
		}},
		{"IndexLookup", [2]int64{1, 2}, func(c expr.Expr) exec.Operator {
			return exec.NewIndexLookupExprs(r, rix, []expr.Expr{c}, "")
		}},
		{"NestedLoopJoin", [2]int64{150, 221}, func(c expr.Expr) exec.Operator {
			return exec.NewNestedLoopJoin(scan(), exec.NewTableScan(r, ""), residual(c))
		}},
		{"HashJoin", [2]int64{150, 221}, func(c expr.Expr) exec.Operator {
			return exec.NewHashJoin(scan(), exec.NewTableScan(r, ""), []int{0}, []int{0}, residual(c))
		}},
		{"MergeJoin", [2]int64{150, 221}, func(c expr.Expr) exec.Operator {
			return exec.NewMergeJoin(scan(), exec.NewTableScan(r, ""), []int{0}, []int{0}, residual(c))
		}},
		{"IndexNLJoin", [2]int64{150, 221}, func(c expr.Expr) exec.Operator {
			return exec.NewIndexNLJoin(scan(), r, rix, []int{0}, residual(c), "", 0)
		}},
		{"FetchMatchesJoin", [2]int64{150, 221}, func(c expr.Expr) exec.Operator {
			return exec.NewIndexNLJoin(scan(), r, rix, []int{0}, residual(c), "", 1)
		}},
		{"ProbeJoin", [2]int64{150, 221}, func(c expr.Expr) exec.Operator {
			return udr.NewProbeJoin(scan(), fn, []int{0}, residual(c), false, "")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.mk(expr.Param{Idx: 0, V: value.NewInt(0), Has: true})
			want := map[int64]string{}
			for _, b := range []int64{0, tc.binds[0], tc.binds[1]} {
				rows, err := exec.Drain(exec.NewContext(), tc.mk(expr.NewLit(value.NewInt(b))))
				if err != nil {
					t.Fatalf("literal %d: %v", b, err)
				}
				want[b] = rowsText(rows)
			}
			if want[0] == want[tc.binds[0]] || want[tc.binds[0]] == want[tc.binds[1]] {
				t.Fatalf("bindings 0, %d and %d do not tell each other apart: %v", tc.binds[0], tc.binds[1], want)
			}
			for _, b := range []int64{tc.binds[0], tc.binds[1], tc.binds[0]} {
				ctx := exec.NewContext()
				ctx.Params = []value.Value{value.NewInt(b)}
				rows, err := exec.Drain(ctx, op)
				if err != nil {
					t.Fatalf("bound to %d: %v", b, err)
				}
				if got := rowsText(rows); got != want[b] {
					t.Errorf("bound to %d: got %s, want %s", b, got, want[b])
				}
			}
		})
	}
}

func rowsText(rows []value.Row) string {
	var s string
	for _, r := range rows {
		s += r.String() + ";"
	}
	return s
}
