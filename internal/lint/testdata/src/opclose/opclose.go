// Package opclose exercises the opclose analyzer: dropped Close
// errors and //lint:ignore suppression.
package opclose

import (
	"errors"

	"filterjoin/internal/exec"
	"filterjoin/internal/schema"
)

// fakeOp implements exec.Operator and returns its child's Close error.
type fakeOp struct {
	child exec.Operator
}

func (f *fakeOp) Schema() *schema.Schema { return nil }

func (f *fakeOp) Open(ctx *exec.Context) error {
	return f.child.Open(ctx)
}

func (f *fakeOp) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return f.child.NextBatch(ctx, dst, max)
}

func (f *fakeOp) Close(ctx *exec.Context) error {
	return f.child.Close(ctx)
}

func dropBare(ctx *exec.Context, op exec.Operator) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	op.Close(ctx) // want "Close error silently dropped"
	return nil
}

func dropDefer(ctx *exec.Context, op exec.Operator) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	defer op.Close(ctx) // want "deferred Close discards its error"
	var b exec.Batch
	return op.NextBatch(ctx, &b, 1)
}

func dropBlank(ctx *exec.Context, op exec.Operator) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	_ = op.Close(ctx) // want "Close error explicitly discarded"
	return nil
}

func balanced(ctx *exec.Context, op exec.Operator) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	var b exec.Batch
	for {
		b.Reset()
		if err := op.NextBatch(ctx, &b, 64); err != nil {
			return errors.Join(err, op.Close(ctx))
		}
		if b.Len() == 0 {
			break
		}
	}
	return op.Close(ctx)
}

func suppressed(ctx *exec.Context, op exec.Operator) {
	//lint:ignore opclose fixture asserts the directive reaches the next line
	op.Close(ctx)
}
