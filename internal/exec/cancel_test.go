package exec

import (
	"context"
	"errors"
	"testing"

	"filterjoin/internal/expr"
	"filterjoin/internal/value"
)

// cancelledCtx returns an execution context whose caller context is
// already cancelled.
func cancelledCtx() *Context {
	ctx := NewContext()
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Caller = cctx
	return ctx
}

// TestNextBatchObservesCancellation holds each row-pulling operator to
// cancellation: once the caller context is cancelled, the next pull
// surfaces context.Canceled instead of continuing to pull. How soon a
// plan sees a cancel is the lifecycle sweep's liveness leg.
func TestNextBatchObservesCancellation(t *testing.T) {
	rows := [][]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	tb := intTable(t, "t", []string{"a", "b"}, rows)
	scan := func() Operator { return NewTableScan(tb, "") }
	cases := map[string]func() Operator{
		"Select": func() Operator {
			return NewSelect(scan(), expr.NewCmp(expr.LT, expr.NewCol(0, "a"), expr.NewLit(value.NewInt(0))))
		},
		"Distinct": func() Operator { return NewDistinct(scan()) },
		"StreamGroupBy": func() Operator {
			return NewStreamGroupBy(scan(), []int{0}, []expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
		},
		"NestedLoopJoin": func() Operator {
			return NewNestedLoopJoin(scan(), scan(), expr.NewCmp(expr.LT, expr.NewCol(0, "a"), expr.NewCol(2, "a")))
		},
		"HashJoin": func() Operator { return NewHashJoin(scan(), scan(), []int{0}, []int{0}, nil) },
		"KeySetFilter": func() Operator {
			set := NewKeySet(1)
			return NewKeySetFilter(scan(), set, []int{0})
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			op := mk()
			ctx := NewContext()
			cctx, cancel := context.WithCancel(context.Background())
			ctx.Caller = cctx
			if err := op.Open(ctx); err != nil {
				t.Fatalf("open: %v", err)
			}
			cancel()
			_, _, err := pullRow(ctx, op)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pull after cancel: err = %v, want context.Canceled", err)
			}
			op.Close(ctx)
		})
	}
}

// TestFillRowsObservesCancellation covers the helper that lifts a row
// step into NextBatch: it must not call the step once cancelled.
func TestFillRowsObservesCancellation(t *testing.T) {
	step := func(*Context) (value.Row, bool, error) {
		t.Error("row step called after cancellation")
		return nil, false, nil
	}
	b := NewBatch(8)
	if err := FillRows(cancelledCtx(), &b, 8, step); !errors.Is(err, context.Canceled) {
		t.Fatalf("FillRows after cancel: err = %v, want context.Canceled", err)
	}
}

// countdownCaller is a caller context whose Err reports
// context.Canceled from its n-th call on.
type countdownCaller struct {
	context.Context
	n, calls int
}

func (c *countdownCaller) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestLoopJoinObservesCancellationPerInnerRow cancels a nested-loops join
// inside its first outer row's inner pass. The join predicate matches no
// pair, so no row ever leaves the join and no poll outside the loop's own
// per-inner-row check runs until the join ends: the join must stop with
// context.Canceled having billed less than one full inner pass.
func TestLoopJoinObservesCancellationPerInnerRow(t *testing.T) {
	rows := make([][]int64, 100)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i)}
	}
	tb := intTable(t, "t", []string{"a", "b"}, rows)
	pass := NewContext()
	if _, err := Drain(pass, NewTableScan(tb, "")); err != nil {
		t.Fatal(err)
	}
	never := expr.NewCmp(expr.LT, expr.NewCol(0, "a"), expr.NewLit(value.NewInt(-1)))
	op := NewNestedLoopJoin(NewTableScan(tb, ""), NewTableScan(tb, ""), never)
	ctx := NewContext()
	ctx.Caller = &countdownCaller{Context: context.Background(), n: 5}
	if _, err := Drain(ctx, op); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain: err = %v, want context.Canceled", err)
	}
	if got, full := ctx.Counter.CPUTuples, pass.Counter.CPUTuples; got >= full {
		t.Fatalf("billed %d CPU tuples before stopping, one inner pass is %d", got, full)
	}
}
