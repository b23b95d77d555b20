// Package sharesafe exercises the sharesafe analyzer: operator state
// mutated during execution must be forked or reset at Open, and Make
// closures must build fresh operator trees — a plan-cache entry is
// shared by every session that hits it.
package sharesafe

import (
	"filterjoin/internal/exec"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

type options struct{ batch int }

// sharedWriter writes through a pointer field it never forked: two
// concurrent executions of one cached plan would race on *opts.
type sharedWriter struct {
	child exec.Operator
	opts  *options
}

func (s *sharedWriter) Schema() *schema.Schema { return s.child.Schema() }

func (s *sharedWriter) Open(ctx *exec.Context) error {
	s.opts.batch = ctx.BatchSize // want "sharedWriter.Open writes through shared field opts without forking it first"
	return s.child.Open(ctx)
}

func (s *sharedWriter) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return s.child.NextBatch(ctx, dst, max)
}

func (s *sharedWriter) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// forkWriter is the checked filterJoinOp pattern: reassign the field to
// a private copy first, then mutate freely.
type forkWriter struct {
	child exec.Operator
	opts  *options
}

func (f *forkWriter) Schema() *schema.Schema { return f.child.Schema() }

func (f *forkWriter) Open(ctx *exec.Context) error {
	f.opts = &options{}
	f.opts.batch = ctx.BatchSize
	return f.child.Open(ctx)
}

func (f *forkWriter) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return f.child.NextBatch(ctx, dst, max)
}

func (f *forkWriter) Close(ctx *exec.Context) error { return f.child.Close(ctx) }

// staleAgg accumulates across its row step (reached from NextBatch only
// as a method value) but Open never resets, so a reopened or
// cache-served instance replays the previous execution's totals.
type staleAgg struct {
	child exec.Operator
	in    exec.RowReader
	done  bool
	count int64
}

func (a *staleAgg) Schema() *schema.Schema { return nil }

func (a *staleAgg) Open(ctx *exec.Context) error { return a.child.Open(ctx) }

func (a *staleAgg) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return exec.FillRows(ctx, dst, max, a.next)
}

func (a *staleAgg) next(ctx *exec.Context) (value.Row, bool, error) {
	if a.done {
		return nil, false, nil
	}
	for {
		_, ok, err := a.in.Read(ctx, a.child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		a.count++ // want "staleAgg.next writes field count but Open never resets it"
		ctx.Counter.CPUTuples++
	}
	a.done = true // want "staleAgg.next writes field done but Open never resets it"
	return value.Row{value.NewInt(a.count)}, true, nil
}

func (a *staleAgg) Close(ctx *exec.Context) error { return a.child.Close(ctx) }

// resetAgg is the compliant version: Open zeroes everything the row
// step writes. The RowReader needs no reset: reading through it is a
// method call on the field, and it keeps no stream state.
type resetAgg struct {
	child exec.Operator
	in    exec.RowReader
	done  bool
	count int64
}

func (a *resetAgg) Schema() *schema.Schema { return nil }

func (a *resetAgg) Open(ctx *exec.Context) error {
	a.done = false
	a.count = 0
	return a.child.Open(ctx)
}

func (a *resetAgg) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return exec.FillRows(ctx, dst, max, a.next)
}

func (a *resetAgg) next(ctx *exec.Context) (value.Row, bool, error) {
	if a.done {
		return nil, false, nil
	}
	for {
		_, ok, err := a.in.Read(ctx, a.child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		a.count++
		ctx.Counter.CPUTuples++
	}
	a.done = true
	return value.Row{value.NewInt(a.count)}, true, nil
}

func (a *resetAgg) Close(ctx *exec.Context) error { return a.child.Close(ctx) }

// batchKeeper resets its buffer through a method call at Open — a
// reset-style touch, accepted like an assignment.
type batchKeeper struct {
	child exec.Operator
	buf   exec.Batch
	pos   int
}

func (b *batchKeeper) Schema() *schema.Schema { return b.child.Schema() }

func (b *batchKeeper) Open(ctx *exec.Context) error {
	b.buf.Reset()
	b.pos = 0
	return b.child.Open(ctx)
}

func (b *batchKeeper) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	if b.pos >= b.buf.Len() {
		b.buf.Reset()
		b.pos = 0
		if err := b.child.NextBatch(ctx, &b.buf, 64); err != nil || b.buf.Len() == 0 {
			return err
		}
	}
	dst.Rows = append(dst.Rows, b.buf.Rows[b.pos])
	b.pos++
	return nil
}

func (b *batchKeeper) Close(ctx *exec.Context) error { return b.child.Close(ctx) }

// node mirrors plan.Node's Make field: the closure every cached plan
// shares and every execution invokes for a fresh operator tree.
type node struct {
	Make func() exec.Operator
}

// freshMake builds a new operator per call: compliant.
func freshMake(child exec.Operator) *node {
	return &node{Make: func() exec.Operator {
		return &resetAgg{child: child}
	}}
}

// capturedMake hands the same operator instance to every execution.
func capturedMake(op exec.Operator) *node {
	n := &node{}
	n.Make = func() exec.Operator {
		return op // want "Make closure returns captured variable op; Make must build a fresh operator tree per call"
	}
	return n
}

type holder struct{ op exec.Operator }

// capturedFieldMake shares through a captured struct field instead.
func capturedFieldMake(h *holder) *node {
	return &node{Make: func() exec.Operator {
		return h.op // want "Make closure returns captured field op; Make must build a fresh operator tree per call"
	}}
}

// localMake declares the operator inside the closure: fresh per call.
func localMake(child exec.Operator) *node {
	return &node{Make: func() exec.Operator {
		op := &resetAgg{child: child}
		return op
	}}
}

// singletonMake intentionally shares a stateless sink; the suppression
// documents why that is safe here.
func singletonMake(shared exec.Operator) *node {
	n := &node{}
	//lint:ignore sharesafe fixture: the shared sink is stateless by construction
	n.Make = func() exec.Operator { return shared }
	return n
}
