// Package opclose exercises the opclose analyzer: dropped Close
// errors, Open without Close on an error path, field-level pairing,
// and //lint:ignore suppression.
package opclose

import (
	"errors"

	"filterjoin/internal/exec"
	"filterjoin/internal/schema"
)

// fakeOp implements exec.Operator and closes the child it opens.
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

// leakyOp opens its child but no method ever closes it.
type leakyOp struct {
	child exec.Operator
}

func (l *leakyOp) Schema() *schema.Schema { return nil }

func (l *leakyOp) Open(ctx *exec.Context) error {
	return l.child.Open(ctx) // want "leakyOp.Open opens field child but no method of leakyOp closes it"
}

func (l *leakyOp) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return l.child.NextBatch(ctx, dst, max)
}

func (l *leakyOp) Close(ctx *exec.Context) error { return nil }

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

func leakOnError(ctx *exec.Context, op exec.Operator) error {
	if err := op.Open(ctx); err != nil { // want "op.Open is not balanced by a Close on every path"
		return err
	}
	var b exec.Batch
	if err := op.NextBatch(ctx, &b, 1); err != nil {
		return err // op is still open here
	}
	return op.Close(ctx)
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

// goWorkerClean runs a worker pipeline inside a goroutine closure; the
// operator opened inside the closure is closed on every path of the
// closure, which is what the analyzer now checks inside FuncLit bodies.
func goWorkerClean(mk func() exec.Operator) error {
	done := make(chan error, 1)
	go func() {
		op := mk()
		w := exec.NewContext()
		if err := op.Open(w); err != nil {
			done <- err
			return
		}
		done <- op.Close(w)
	}()
	return <-done
}

// goWorkerLeak opens an operator inside a goroutine and abandons it:
// nothing outside the closure can ever close it.
func goWorkerLeak(mk func() exec.Operator) {
	go func() {
		op := mk()
		w := exec.NewContext()
		if err := op.Open(w); err != nil { // want "op.Open is not balanced by a Close on every path"
			return
		}
		var b exec.Batch
		_ = op.NextBatch(w, &b, 1)
	}()
}
