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
