// Package ctxcancel exercises the ctxcancel analyzer: row-pulling
// loops must observe exec.Context cancellation each iteration —
// otherwise a cancelled query spins.
package ctxcancel

import (
	"filterjoin/internal/exec"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// spinFilter pulls until a row survives the filter, deaf to
// cancellation: an all-filtered input spins forever after the caller
// hung up.
type spinFilter struct {
	child exec.Operator
	in    exec.Batch
}

func (s *spinFilter) Schema() *schema.Schema { return s.child.Schema() }

func (s *spinFilter) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

func (s *spinFilter) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	for len(dst.Rows) == 0 { // want "loop pulls rows but never observes cancellation"
		s.in.Reset()
		if err := s.child.NextBatch(ctx, &s.in, max); err != nil || s.in.Len() == 0 {
			return err
		}
		for _, r := range s.in.Rows {
			ctx.Counter.CPUTuples++
			if len(r) > 0 {
				dst.Rows = append(dst.Rows, r)
			}
		}
	}
	return nil
}

func (s *spinFilter) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// checkedFilter polls ctx.Err each iteration: compliant.
type checkedFilter struct {
	child exec.Operator
	in    exec.Batch
}

func (c *checkedFilter) Schema() *schema.Schema { return c.child.Schema() }

func (c *checkedFilter) Open(ctx *exec.Context) error { return c.child.Open(ctx) }

func (c *checkedFilter) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	for len(dst.Rows) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.in.Reset()
		if err := c.child.NextBatch(ctx, &c.in, max); err != nil || c.in.Len() == 0 {
			return err
		}
		for _, r := range c.in.Rows {
			ctx.Counter.CPUTuples++
			if len(r) > 0 {
				dst.Rows = append(dst.Rows, r)
			}
		}
	}
	return nil
}

func (c *checkedFilter) Close(ctx *exec.Context) error { return c.child.Close(ctx) }

// helperChecked is the row-at-a-time idiom: its loop lives in a row
// step handed to exec.FillRows as a method value, and observes
// cancellation through a helper method — the check propagates through
// same-package calls.
type helperChecked struct {
	child exec.Operator
	in    exec.RowReader
}

func (h *helperChecked) Schema() *schema.Schema { return h.child.Schema() }

func (h *helperChecked) Open(ctx *exec.Context) error { return h.child.Open(ctx) }

func (h *helperChecked) guard(ctx *exec.Context) error { return ctx.Err() }

func (h *helperChecked) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return exec.FillRows(ctx, dst, max, h.next)
}

func (h *helperChecked) next(ctx *exec.Context) (value.Row, bool, error) {
	for {
		if err := h.guard(ctx); err != nil {
			return nil, false, err
		}
		r, ok, err := h.in.Read(ctx, h.child)
		if err != nil || !ok {
			return nil, false, err
		}
		if len(r) > 0 {
			return r, true, nil
		}
	}
}

func (h *helperChecked) Close(ctx *exec.Context) error { return h.child.Close(ctx) }

// spinStep is helperChecked without the guard: a row step reached only
// as a method value must not be a blind spot.
type spinStep struct {
	child exec.Operator
	in    exec.RowReader
}

func (s *spinStep) Schema() *schema.Schema { return s.child.Schema() }

func (s *spinStep) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

func (s *spinStep) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return exec.FillRows(ctx, dst, max, s.next)
}

func (s *spinStep) next(ctx *exec.Context) (value.Row, bool, error) {
	for { // want "loop pulls rows but never observes cancellation"
		r, ok, err := s.in.Read(ctx, s.child)
		if err != nil || !ok {
			return nil, false, err
		}
		if len(r) > 0 {
			return r, true, nil
		}
	}
}

func (s *spinStep) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// recounter re-counts its inner through exec.Count for every outer
// batch. Count is itself obligated (by this analyzer running over the
// exec package) to observe cancellation: the call is both the pull and
// the check.
type recounter struct {
	outer, inner exec.Operator
	in           exec.Batch
}

func (p *recounter) Schema() *schema.Schema { return p.outer.Schema() }

func (p *recounter) Open(ctx *exec.Context) error { return p.outer.Open(ctx) }

func (p *recounter) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	for len(dst.Rows) == 0 {
		n, err := exec.Count(ctx, p.inner)
		if err != nil {
			return err
		}
		p.in.Reset()
		if err := p.outer.NextBatch(ctx, &p.in, max); err != nil || p.in.Len() == 0 {
			return err
		}
		if n > 0 {
			dst.Rows = append(dst.Rows, p.in.Rows...)
		}
	}
	return nil
}

func (p *recounter) Close(ctx *exec.Context) error { return p.outer.Close(ctx) }

// drainAll is a drain shim without the obligation the real ones carry:
// free functions driving an Operator parameter are in scope too.
func drainAll(ctx *exec.Context, op exec.Operator) ([]value.Row, error) {
	var out []value.Row
	b := exec.NewBatch(64)
	for { // want "loop pulls rows but never observes cancellation"
		b.Reset()
		if err := op.NextBatch(ctx, &b, 64); err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return out, nil
		}
		out = append(out, b.Rows...)
	}
}

// spinCount is a bench harness helper over bounded local input; the
// suppression records why the liveness rule is waived.
func spinCount(ctx *exec.Context, op exec.Operator) (int, error) {
	n := 0
	b := exec.NewBatch(64)
	//lint:ignore ctxcancel fixture: bench harness, input is bounded and local
	for {
		b.Reset()
		if err := op.NextBatch(ctx, &b, 64); err != nil {
			return n, err
		}
		if b.Len() == 0 {
			return n, nil
		}
		n += b.Len()
	}
}
