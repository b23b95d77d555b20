package exec

import (
	"testing"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// pullN opens op, pulls up to n rows, and abandons the stream without
// closing, leaving the operator mid-group / mid-batch.
func pullN(t *testing.T, op Operator, n int) {
	t.Helper()
	ctx := NewContext()
	if err := op.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, ok, err := pullRow(ctx, op); err != nil {
			t.Fatalf("pull: %v", err)
		} else if !ok {
			break
		}
	}
}

// reopenCases are operators whose NextBatch mutates cursor state
// that Open must reset (the sharesafe reset-at-Open contract): a cached
// or re-opened plan must replay from the start, not from wherever the
// previous execution stopped.
func reopenCases(t *testing.T) map[string]func() Operator {
	lrows := [][]int64{{1, 10}, {1, 11}, {2, 20}, {2, 21}, {3, 30}}
	rrows := [][]int64{{1, 100}, {2, 200}, {2, 201}, {3, 300}}
	lt := intTable(t, "l", []string{"k", "v"}, lrows)
	rt := intTable(t, "r", []string{"k", "w"}, rrows)
	return map[string]func() Operator{
		"MergeJoin": func() Operator {
			return NewMergeJoin(NewTableScan(lt, ""), NewTableScan(rt, ""), []int{0}, []int{0}, nil)
		},
		"StreamGroupBy": func() Operator {
			return NewStreamGroupBy(
				NewSort(NewTableScan(lt, ""), []int{0}, nil),
				[]int{0},
				[]expr.AggSpec{{Kind: expr.AggSum, Arg: expr.NewCol(1, "v"), Name: "s"}},
			)
		},
		"Select": func() Operator {
			return NewSelect(NewTableScan(lt, ""), expr.NewCmp(expr.GT, expr.NewCol(1, "v"), expr.NewLit(value.NewInt(10))))
		},
		"Distinct": func() Operator { return NewDistinct(NewColumnProject(NewTableScan(lt, ""), []int{0})) },
		"Limit":    func() Operator { return NewLimit(NewTableScan(lt, ""), 3) },
		// A projection that is not all columns, re-Opened once per outer
		// row as a nested-loops inner.
		"ProjectMixedNLInner": func() Operator {
			inner := NewProject(NewTableScan(lt, ""),
				[]expr.Expr{expr.NewCol(0, "k"), expr.Arith{Op: expr.Add, L: expr.NewCol(1, "v"), R: expr.Int(1)}},
				schema.New(schema.Column{Name: "k", Type: value.KindInt}, schema.Column{Name: "v1", Type: value.KindInt}))
			return NewNestedLoopJoin(NewTableScan(rt, ""), inner, nil)
		},
		// Both sides of the join are read through its RowReader and the
		// inner is a Limit (a RowReader of its own) re-Opened once per
		// outer row: neither adapter may carry a row or a count from one
		// inner pass — or from the abandoned run — into the next.
		"NestedLoopJoinLimitInner": func() Operator {
			return NewNestedLoopJoin(NewTableScan(rt, ""), NewLimit(NewTableScan(lt, ""), 3), nil)
		},
	}
}

// TestReopenAfterPartialConsumption re-opens each operator after an
// abandoned partial run and checks the replay matches a fresh
// execution, rows and counter charges alike, at morsel sizes 1 and 4.
func TestReopenAfterPartialConsumption(t *testing.T) {
	for name, mk := range reopenCases(t) {
		t.Run(name, func(t *testing.T) {
			for _, batch := range []int{1, 4} {
				op := mk()
				ref := NewContext()
				ref.BatchSize = batch
				wantRows, err := Drain(ref, op)
				if err != nil {
					t.Fatalf("reference drain: %v", err)
				}

				op = mk()
				pullN(t, op, 2) // strand the cursor mid-stream
				ctx := NewContext()
				ctx.BatchSize = batch
				gotRows, err := Drain(ctx, op)
				if err != nil {
					t.Fatalf("reopened drain: %v", err)
				}

				if rowsKey(gotRows) != rowsKey(wantRows) {
					t.Errorf("batch=%d: reopened run returned different rows\n got: %v\nwant: %v",
						batch, gotRows, wantRows)
				}
				if *ctx.Counter != *ref.Counter {
					t.Errorf("batch=%d: reopened run charged %+v, fresh run charged %+v",
						batch, *ctx.Counter, *ref.Counter)
				}
			}
		})
	}
}

// TestSelectRebindsParamsOnReopen re-Opens one Select under two
// different ctx.Params: the compiled predicate is bound at Open, so each
// execution answers for its own arguments, not the previous run's.
func TestSelectRebindsParamsOnReopen(t *testing.T) {
	tb := intTable(t, "l", []string{"k", "v"}, [][]int64{{1, 10}, {1, 11}, {2, 20}, {2, 21}, {3, 30}})
	op := NewSelect(NewTableScan(tb, ""),
		expr.NewCmp(expr.GT, expr.NewCol(1, "v"), expr.Param{Idx: 0, V: value.NewInt(0), Has: true}))
	for _, tc := range []struct {
		bound int64
		want  int
	}{{10, 4}, {20, 2}, {10, 4}} {
		ctx := NewContext()
		ctx.Params = []value.Value{value.NewInt(tc.bound)}
		rows, err := Drain(ctx, op)
		if err != nil {
			t.Fatalf("v > %d: %v", tc.bound, err)
		}
		if len(rows) != tc.want {
			t.Errorf("v > %d: %d rows, want %d: %v", tc.bound, len(rows), tc.want, rows)
		}
	}
}

func rowsKey(rows []value.Row) string {
	var s string
	for _, r := range rows {
		s += r.FullKey() + "|"
	}
	return s
}
