package exec

import (
	"fmt"
	"testing"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// retain hides a carrier's Borrow from the operator it wraps. A tree
// whose every operator is wrapped runs with no borrowing anywhere, so
// no arena is ever recycled: the oracle a borrowing tree must match.
type retain struct{ Operator }

func (r retain) NextBatch(ctx *Context, dst *Batch, max int) error {
	b := dst.Borrow
	dst.Borrow = false
	err := r.Operator.NextBatch(ctx, dst, max)
	dst.Borrow = b
	return err
}

// borrowTables returns two small tables whose equi-join on k spans
// several slabs of every arena and repeats rows, so a recycled row that
// escapes its pull shows up as a changed or duplicated answer row.
func borrowTables(t *testing.T) (l, r, s *storage.Table, rix *storage.HashIndex) {
	lrows := make([][]int64, 120)
	for i := range lrows {
		lrows[i] = []int64{int64(i % 13), int64(i % 7)}
	}
	rrows := make([][]int64, 90)
	for i := range rrows {
		rrows[i] = []int64{int64(i % 11), int64(i % 5)}
	}
	srows := make([][]int64, 13)
	for i := range srows {
		srows[i] = []int64{int64(i), int64(100 + i)}
	}
	l = intTable(t, "l", []string{"k", "v"}, lrows)
	r = intTable(t, "r", []string{"k", "v"}, rrows)
	s = intTable(t, "s", []string{"k", "w"}, srows)
	rix, err := r.CreateIndex("rk", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	return l, r, s, rix
}

// TestBorrowedRowsNeverEscape is the lifetime rule's matrix: every
// pass-through (or none) over every recycling producer, consumed by the
// retaining consumers (Drain, a hash build) and by the borrowing ones
// (the two folds, a projection, a hash probe), at morsel sizes 1, 3 and
// 1024. Each answer and bill must equal the same tree's with borrowing
// hidden from every operator. A pass-through that borrows for a
// retaining consumer, or a producer that recycles rows its consumer
// still holds, lets a later pull overwrite an answer row. The borrowing
// trees all run on one scratch store, which poisons every buffer given
// back, and each is closed a second time: a buffer given back while a
// row still needs it, or given back twice, changes an answer or panics.
func TestBorrowedRowsNeverEscape(t *testing.T) {
	lt, rt, st, rix := borrowTables(t)
	type wrap = func(Operator) Operator
	scan := func(w wrap, tb *storage.Table) Operator { return w(NewTableScan(tb, "")) }
	producers := []struct {
		name string
		mk   func(w wrap) Operator
	}{
		{"HashJoin", func(w wrap) Operator {
			return w(NewHashJoin(scan(w, lt), scan(w, rt), []int{0}, []int{0}, nil))
		}},
		{"IndexNLJoin", func(w wrap) Operator {
			return w(NewIndexNLJoin(scan(w, lt), rt, rix, []int{0}, residualGT(), "", 0))
		}},
		{"NestedLoopJoin", func(w wrap) Operator {
			return w(NewNestedLoopJoin(scan(w, lt), scan(w, rt), expr.Eq(expr.NewCol(0, "l.k"), expr.NewCol(2, "r.k"))))
		}},
		{"MergeJoin", func(w wrap) Operator {
			return w(NewMergeJoin(scan(w, lt), scan(w, rt), []int{0}, []int{0}, residualGT()))
		}},
		{"Project", func(w wrap) Operator {
			child := scan(w, lt)
			in := child.Schema()
			out := schema.New(in.Col(0), in.Col(1), schema.Column{Name: "c", Type: value.KindInt})
			return w(NewProject(child, []expr.Expr{expr.NewCol(0, "k"), expr.NewCol(1, "v"), expr.Int(7)}, out))
		}},
	}
	passes := []struct {
		name string
		mk   func(w wrap, child Operator) Operator
	}{
		{"direct", func(_ wrap, child Operator) Operator { return child }},
		{"Select", func(w wrap, child Operator) Operator {
			return w(NewSelect(child, expr.NewCmp(expr.NE, expr.NewCol(1, "v"), expr.Int(2))))
		}},
		{"Distinct", func(w wrap, child Operator) Operator { return w(NewDistinct(child)) }},
		{"Limit", func(w wrap, child Operator) Operator { return w(NewLimit(child, 100)) }},
		{"Instrumented", func(w wrap, child Operator) Operator { return w(NewInstrumented(child, "x", nil)) }},
	}
	aggs := []expr.AggSpec{
		{Kind: expr.AggCount, Name: "n"},
		{Kind: expr.AggSum, Arg: expr.NewCol(1, "v"), Name: "s"},
	}
	consumers := []struct {
		name string
		mk   func(w wrap, tree Operator) Operator
	}{
		// Retaining consumers: they keep the rows they are given.
		{"Drain", func(_ wrap, tree Operator) Operator { return tree }},
		{"HashBuild", func(w wrap, tree Operator) Operator {
			return w(NewHashJoin(tree, scan(w, st), []int{0}, []int{0}, nil))
		}},
		// Borrowing consumers: each row lives for one pull.
		{"GroupBy", func(w wrap, tree Operator) Operator { return w(NewGroupBy(tree, []int{0}, aggs)) }},
		{"StreamGroupBy", func(w wrap, tree Operator) Operator { return w(NewStreamGroupBy(tree, []int{0}, aggs)) }},
		{"Project", func(w wrap, tree Operator) Operator { return w(NewColumnProject(tree, []int{1, 0})) }},
		{"HashProbe", func(w wrap, tree Operator) Operator {
			return w(NewHashJoin(scan(w, st), tree, []int{0}, []int{0}, nil))
		}},
	}
	store := NewStore()
	store.SetBudget(1 << 30)
	run := func(op Operator, size int, scratch *Store) ([]string, string) {
		ctx := NewContext()
		ctx.BatchSize, ctx.Scratch = size, scratch
		rows, err := Drain(ctx, op)
		if err != nil {
			t.Fatal(err)
		}
		op.Close(ctx) // Close after Close gives nothing back
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		return out, ctx.Counter.String()
	}
	keep := func(op Operator) Operator { return op }
	hide := func(op Operator) Operator { return retain{op} }
	for _, p := range producers {
		for _, ps := range passes {
			for _, c := range consumers {
				build := func(w wrap) Operator { return c.mk(w, ps.mk(w, p.mk(w))) }
				for _, size := range []int{1, 3, 1024} {
					name := fmt.Sprintf("%s/%s/%s/%d", c.name, ps.name, p.name, size)
					want, wantBill := run(build(hide), size, nil)
					got, gotBill := run(build(keep), size, store)
					if len(want) == 0 {
						t.Fatalf("%s: the oracle answer is empty", name)
					}
					if len(got) != len(want) {
						t.Errorf("%s: %d rows, want %d", name, len(got), len(want))
						continue
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s: row %d = %s, want %s", name, i, got[i], want[i])
							break
						}
					}
					if gotBill != wantBill {
						t.Errorf("%s: bill %s, want %s", name, gotBill, wantBill)
					}
				}
			}
		}
	}
}
