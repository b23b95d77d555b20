package exec

import (
	"errors"
	"testing"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// badPred evaluates arithmetic over a string, which errors at runtime.
func badPred() expr.Expr {
	return expr.NewCmp(expr.GT,
		expr.Arith{Op: expr.Add, L: expr.NewCol(0, "s"), R: expr.Int(1)},
		expr.Int(0))
}

func TestSelectErrorPropagates(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}})
	// Force a type error: compare a NOT over an int.
	pred := expr.Not{Kid: expr.NewCol(0, "a")}
	op := NewSelect(NewTableScan(tb, ""), pred)
	ctx := NewContext()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pullRow(ctx, op); err == nil {
		t.Error("evaluation error must propagate through Select")
	}
}

func TestProjectErrorPropagates(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}})
	exprs := []expr.Expr{expr.Arith{Op: expr.Div, L: expr.NewCol(0, "a"), R: expr.Int(0)}}
	op := NewProject(NewTableScan(tb, ""), exprs, tb.Schema())
	ctx := NewContext()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pullRow(ctx, op); err == nil {
		t.Error("division by zero must propagate through Project")
	}
}

func TestJoinResidualErrorPropagates(t *testing.T) {
	lt := intTable(t, "l", []string{"k"}, [][]int64{{1}})
	rt := intTable(t, "r", []string{"k"}, [][]int64{{1}})
	// Residual NOT over an int errors.
	res := expr.Not{Kid: expr.NewCol(0, "k")}
	hj := NewHashJoin(NewTableScan(lt, "l"), NewTableScan(rt, "r"), []int{0}, []int{0}, res)
	ctx := NewContext()
	if err := hj.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pullRow(ctx, hj); err == nil {
		t.Error("residual error must propagate through HashJoin")
	}

	nl := NewNestedLoopJoin(NewTableScan(lt, "l"), NewTableScan(rt, "r"), res)
	if err := nl.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pullRow(ctx, nl); err == nil {
		t.Error("predicate error must propagate through NestedLoopJoin")
	}
}

func TestGroupByAggErrorPropagates(t *testing.T) {
	s := intTable(t, "t", []string{"g"}, [][]int64{{1}})
	_ = s
	// SUM over a string column errors during Open (build phase).
	strTable := NewValues(
		schemaOf(t),
		[]value.Row{{value.NewString("x")}},
	)
	g := NewGroupBy(strTable, nil, []expr.AggSpec{
		{Kind: expr.AggSum, Arg: expr.NewCol(0, "s"), Name: "s"},
	})
	ctx := NewContext()
	if err := g.Open(ctx); err == nil {
		t.Error("SUM over strings must error at Open")
	}
}

func TestSortChildErrorPropagates(t *testing.T) {
	bad := NewSelect(NewValues(schemaOf(t), []value.Row{{value.NewString("x")}}), badPred())
	s := NewSort(bad, []int{0}, nil)
	ctx := NewContext()
	if err := s.Open(ctx); err == nil {
		t.Error("child error must propagate through Sort's materialization")
	}
}

// schemaOf returns a one-string-column schema for error fixtures.
func schemaOf(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.New(schema.Column{Name: "s", Type: value.KindString})
}

// failingOp errors from Next after emitting its rows. It records
// whether Close ran, so tests can assert the error half of the operator
// lifecycle contract: the error path closes the child and returns the
// Next error.
type failingOp struct {
	sch     *schema.Schema
	rows    []value.Row
	nextErr error
	pos     int
	closed  bool
}

func (f *failingOp) Schema() *schema.Schema { return f.sch }

func (f *failingOp) Open(ctx *Context) error {
	f.pos = 0
	f.closed = false
	return nil
}

func (f *failingOp) NextBatch(ctx *Context, dst *Batch, max int) error {
	return FillRows(ctx, dst, max, func(*Context) (value.Row, bool, error) {
		if f.pos < len(f.rows) {
			f.pos++
			return f.rows[f.pos-1], true, nil
		}
		return nil, false, f.nextErr
	})
}

func (f *failingOp) Close(ctx *Context) { f.closed = true }

var errNext = errors.New("next exploded")

func newFailingOp(t *testing.T) *failingOp {
	t.Helper()
	return &failingOp{
		sch:     schema.New(schema.Column{Name: "g", Type: value.KindInt}),
		rows:    []value.Row{{value.NewInt(1)}},
		nextErr: errNext,
	}
}

// checkClosed asserts the error path closed the child and surfaced the
// Next error.
func checkClosed(t *testing.T, what string, f *failingOp, err error) {
	t.Helper()
	if !f.closed {
		t.Errorf("%s: error path did not Close the child", what)
	}
	if !errors.Is(err, errNext) {
		t.Errorf("%s: Next error lost: %v", what, err)
	}
}

func TestDrainClosesChildOnError(t *testing.T) {
	f := newFailingOp(t)
	_, err := Drain(NewContext(), f)
	checkClosed(t, "Drain", f, err)
}

func TestCountClosesChildOnError(t *testing.T) {
	f := newFailingOp(t)
	_, err := Count(NewContext(), f)
	checkClosed(t, "Count", f, err)
}

func TestGroupByOpenClosesChildOnError(t *testing.T) {
	f := newFailingOp(t)
	g := NewGroupBy(f, []int{0}, nil)
	err := g.Open(NewContext())
	checkClosed(t, "GroupBy.Open", f, err)
}

func TestGroupByAggEvalClosesChildOnError(t *testing.T) {
	// The aggregate argument errors during the build loop; the child
	// must still be closed.
	f := &failingOp{
		sch:  schemaOf(t),
		rows: []value.Row{{value.NewString("x")}},
		// nextErr is never reached: Eval fails on the first row.
	}
	g := NewGroupBy(f, nil, []expr.AggSpec{
		{Kind: expr.AggSum, Arg: expr.NewCol(0, "s"), Name: "s"},
	})
	err := g.Open(NewContext())
	if !f.closed {
		t.Error("GroupBy.Open: eval error path did not Close the child")
	}
	if err == nil {
		t.Error("GroupBy.Open: SUM over strings must error")
	}
}

func TestTopNOpenClosesChildOnError(t *testing.T) {
	f := newFailingOp(t)
	top := NewTopN(f, 1, []int{0}, nil)
	err := top.Open(NewContext())
	checkClosed(t, "TopN.Open", f, err)
}

func TestBuildKeySetClosesChildOnError(t *testing.T) {
	f := newFailingOp(t)
	_, err := BuildKeySet(NewContext(), f, []int{0})
	checkClosed(t, "BuildKeySet", f, err)
}
