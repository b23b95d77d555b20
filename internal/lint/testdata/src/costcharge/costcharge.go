// Package costcharge exercises the costcharge analyzer: operators
// whose Open/NextBatch do row work must charge ctx.Counter, directly or
// via a helper method reachable from Open/NextBatch.
package costcharge

import (
	"errors"
	"sort"

	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// freeLoop loops over child rows in NextBatch without charging anything.
type freeLoop struct {
	child exec.Operator
	in    exec.Batch
}

func (f *freeLoop) Schema() *schema.Schema { return nil }

func (f *freeLoop) Open(ctx *exec.Context) error { return f.child.Open(ctx) }

func (f *freeLoop) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error { // want "freeLoop.NextBatch does row work but no method of freeLoop reachable from Open/NextBatch charges ctx.Counter"
	f.in.Reset()
	if err := f.child.NextBatch(ctx, &f.in, max); err != nil {
		return err
	}
	for _, r := range f.in.Rows {
		if len(r) > 0 {
			dst.Rows = append(dst.Rows, r)
		}
	}
	return nil
}

func (f *freeLoop) Close(ctx *exec.Context) error { return f.child.Close(ctx) }

// freeSort sorts in Open without charging: sort/heap calls count as work.
type freeSort struct {
	rows []value.Row
}

func (f *freeSort) Schema() *schema.Schema { return nil }

func (f *freeSort) Open(ctx *exec.Context) error { // want "freeSort.Open does row work but no method of freeSort reachable from Open/NextBatch charges ctx.Counter"
	sort.Slice(f.rows, func(i, j int) bool { return len(f.rows[i]) < len(f.rows[j]) })
	return nil
}

func (f *freeSort) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error { return nil }

func (f *freeSort) Close(ctx *exec.Context) error { return nil }

// charging is the batch idiom: units accumulate in a local and flush to
// ctx.Counter once per batch.
type charging struct {
	child exec.Operator
	in    exec.Batch
}

func (c *charging) Schema() *schema.Schema { return nil }

func (c *charging) Open(ctx *exec.Context) error { return c.child.Open(ctx) }

func (c *charging) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	c.in.Reset()
	if err := c.child.NextBatch(ctx, &c.in, max); err != nil {
		return err
	}
	var cpu int64
	defer func() { ctx.Counter.CPUTuples += cpu }()
	for _, r := range c.in.Rows {
		cpu++
		dst.Rows = append(dst.Rows, r)
	}
	return nil
}

func (c *charging) Close(ctx *exec.Context) error { return c.child.Close(ctx) }

// viaHelper loops in NextBatch and charges inside a helper it calls.
type viaHelper struct {
	child exec.Operator
	in    exec.Batch
}

func (v *viaHelper) Schema() *schema.Schema { return nil }

func (v *viaHelper) Open(ctx *exec.Context) error { return v.child.Open(ctx) }

func (v *viaHelper) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	v.in.Reset()
	if err := v.child.NextBatch(ctx, &v.in, max); err != nil {
		return err
	}
	for _, r := range v.in.Rows {
		v.charge(ctx)
		dst.Rows = append(dst.Rows, r)
	}
	return nil
}

func (v *viaHelper) charge(ctx *exec.Context) { ctx.Counter.CPUTuples++ }

func (v *viaHelper) Close(ctx *exec.Context) error { return v.child.Close(ctx) }

// passThrough does no loops and no sorting: exempt.
type passThrough struct {
	child exec.Operator
}

func (p *passThrough) Schema() *schema.Schema { return nil }

func (p *passThrough) Open(ctx *exec.Context) error { return p.child.Open(ctx) }

func (p *passThrough) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return p.child.NextBatch(ctx, dst, max)
}

func (p *passThrough) Close(ctx *exec.Context) error { return p.child.Close(ctx) }

// suppressedOp loops for free, but its shim nature is documented.
type suppressedOp struct {
	child exec.Operator
	in    exec.RowReader
}

func (s *suppressedOp) Schema() *schema.Schema { return nil }

func (s *suppressedOp) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

//lint:ignore costcharge fixture: measurement shim, charged by the harness
func (s *suppressedOp) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	for len(dst.Rows) < max {
		r, ok, err := s.in.Read(ctx, s.child)
		if err != nil || !ok {
			return err
		}
		dst.Rows = append(dst.Rows, r)
	}
	return nil
}

func (s *suppressedOp) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// stepCharging is the row-at-a-time idiom: NextBatch has no loop of its
// own and hands a row step to exec.FillRows as a method value. The
// step's loop and its charge must both be found through that value.
type stepCharging struct {
	child exec.Operator
	in    exec.RowReader
}

func (s *stepCharging) Schema() *schema.Schema { return nil }

func (s *stepCharging) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

func (s *stepCharging) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return exec.FillRows(ctx, dst, max, s.next)
}

func (s *stepCharging) next(ctx *exec.Context) (value.Row, bool, error) {
	for {
		r, ok, err := s.in.Read(ctx, s.child)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Counter.CPUTuples++
		if len(r) > 0 {
			return r, true, nil
		}
	}
}

func (s *stepCharging) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// stepFree loops inside its row step and never charges: a step passed
// as a method value must not be a blind spot for the analyzer.
type stepFree struct {
	child exec.Operator
	in    exec.RowReader
}

func (s *stepFree) Schema() *schema.Schema { return nil }

func (s *stepFree) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

func (s *stepFree) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return exec.FillRows(ctx, dst, max, s.next)
}

func (s *stepFree) next(ctx *exec.Context) (value.Row, bool, error) { // want "stepFree.next does row work but no method of stepFree reachable from Open/NextBatch charges ctx.Counter"
	for {
		r, ok, err := s.in.Read(ctx, s.child)
		if err != nil || !ok {
			return nil, false, err
		}
		if len(r) > 0 {
			return r, true, nil
		}
	}
}

func (s *stepFree) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// kernelFree delegates its per-row loop to a compiled expression kernel
// (expr.Pred.SelectBatch): the loop lives inside the kernel, not the
// operator body, but the call is row work all the same and must be
// charged from the kernel's evaluated-row count.
type kernelFree struct {
	child exec.Operator
	kern  *expr.Pred
	in    exec.Batch
}

func (k *kernelFree) Schema() *schema.Schema { return nil }

func (k *kernelFree) Open(ctx *exec.Context) error { return k.child.Open(ctx) }

func (k *kernelFree) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error { // want "kernelFree.NextBatch does row work but no method of kernelFree reachable from Open/NextBatch charges ctx.Counter"
	k.in.Reset()
	if err := k.child.NextBatch(ctx, &k.in, max); err != nil {
		return err
	}
	sel, _, err := k.kern.SelectBatch(k.in.Rows)
	if err != nil {
		return err
	}
	if len(sel) > 0 {
		dst.Rows = append(dst.Rows, k.in.Rows[sel[0]])
	}
	return nil
}

func (k *kernelFree) Close(ctx *exec.Context) error { return k.child.Close(ctx) }

// kernelCharging runs the same kernel but flushes the kernel's
// evaluated-row count to the ledger — the batch kernel idiom.
type kernelCharging struct {
	child exec.Operator
	kern  *expr.Pred
	in    exec.Batch
}

func (k *kernelCharging) Schema() *schema.Schema { return nil }

func (k *kernelCharging) Open(ctx *exec.Context) error { return k.child.Open(ctx) }

func (k *kernelCharging) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	k.in.Reset()
	if err := k.child.NextBatch(ctx, &k.in, max); err != nil {
		return err
	}
	sel, evaluated, err := k.kern.SelectBatch(k.in.Rows)
	ctx.Counter.CPUTuples += int64(evaluated)
	if err != nil {
		return err
	}
	if len(sel) > 0 {
		dst.Rows = append(dst.Rows, k.in.Rows[sel[0]])
	}
	return nil
}

func (k *kernelCharging) Close(ctx *exec.Context) error { return k.child.Close(ctx) }

// guardPass is a cardinality guard: a pure pass-through that only
// counts rows and compares against a threshold. No loop, no row work —
// counting is free, so the analyzer must not demand a charge (the child
// it wraps charges for producing the rows).
type guardPass struct {
	child exec.Operator
	est   float64
	n     int64
}

func (g *guardPass) Schema() *schema.Schema { return g.child.Schema() }

func (g *guardPass) Open(ctx *exec.Context) error {
	g.n = 0
	return g.child.Open(ctx)
}

func (g *guardPass) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	if err := g.child.NextBatch(ctx, dst, max); err != nil {
		return err
	}
	g.n += int64(len(dst.Rows))
	if float64(g.n) >= g.est*10 {
		return errTripped
	}
	return nil
}

func (g *guardPass) Close(ctx *exec.Context) error { return g.child.Close(ctx) }

var errTripped = errors.New("guard tripped")

// guardFilter is the broken variant of the guard: it does real row
// work — draining and discarding the remainder of its child in a loop —
// without charging the discarded rows to the ledger.
type guardFilter struct {
	child exec.Operator
	est   float64
	n     int64
}

func (g *guardFilter) Schema() *schema.Schema { return g.child.Schema() }

func (g *guardFilter) Open(ctx *exec.Context) error { return g.child.Open(ctx) }

func (g *guardFilter) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error { // want "guardFilter.NextBatch does row work but no method of guardFilter reachable from Open/NextBatch charges ctx.Counter"
	if err := g.child.NextBatch(ctx, dst, max); err != nil {
		return err
	}
	g.n += int64(len(dst.Rows))
	if float64(g.n) >= g.est*10 {
		for len(dst.Rows) > 0 {
			dst.Reset()
			if err := g.child.NextBatch(ctx, dst, max); err != nil {
				break
			}
		}
		return errTripped
	}
	return nil
}

func (g *guardFilter) Close(ctx *exec.Context) error { return g.child.Close(ctx) }
