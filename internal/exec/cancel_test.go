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

// TestNextBatchObservesCancellation holds every row-pulling loop to the
// ctxcancel contract: once the caller context is cancelled, the next
// pull surfaces context.Canceled instead of continuing to pull.
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
			if err := op.Close(ctx); err != nil {
				t.Fatalf("close: %v", err)
			}
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

// TestWorkerContextInheritsCaller pins the exchange contract: worker
// contexts share the parent's cancellation context (and nothing else),
// so cancelling the query reaches every worker goroutine.
func TestWorkerContextInheritsCaller(t *testing.T) {
	parent := NewContext()
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parent.Caller = cctx
	w := NewWorkerContext(parent)
	if w.Caller != cctx {
		t.Error("worker context did not inherit the parent's caller context")
	}
	if w.Counter == parent.Counter {
		t.Error("worker context must charge a private counter")
	}
	if orphan := NewWorkerContext(nil); orphan == nil || orphan.Caller != nil {
		t.Error("nil parent must yield a fresh standalone context")
	}
}

// TestParallelOperatorsStopOnCancel drives the three exchange operators
// with an already-cancelled caller: their workers observe it and Open
// surfaces the cancellation instead of draining the full input.
func TestParallelOperatorsStopOnCancel(t *testing.T) {
	rows := make([][]int64, 2000)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	tb := intTable(t, "t", []string{"a", "b"}, rows)

	t.Run("ParallelScan", func(t *testing.T) {
		op := NewParallelScan(tb, "", 4, nil)
		err := op.Open(cancelledCtx())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Open = %v, want context.Canceled", err)
		}
	})
	t.Run("Gather", func(t *testing.T) {
		part := NewPartition(NewTableScan(tb, ""), []int{1}, 4)
		op := NewGather(part, nil)
		err := op.Open(cancelledCtx())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Open = %v, want context.Canceled", err)
		}
	})
	t.Run("ParallelHashJoin", func(t *testing.T) {
		op := NewParallelHashJoin(NewTableScan(tb, ""), NewTableScan(tb, ""), []int{0}, []int{0}, nil, 4)
		err := op.Open(cancelledCtx())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Open = %v, want context.Canceled", err)
		}
	})
}
