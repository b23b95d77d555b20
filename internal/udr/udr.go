// Package udr implements join strategies over user-defined relations:
// relations produced by calling a function with argument bindings (paper
// §5.2). The strategies mirror Fig 6's rows for user-defined relations:
// repeated procedure invocation, invocation with memoization (function
// caching), and — via the Filter Join — consecutive invocation over the
// distinct argument set, which eliminates duplicate calls entirely.
package udr

import (
	"fmt"

	"filterjoin/internal/catalog"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// ProbeJoin joins an outer stream with a function-backed relation: for
// every outer row it invokes the function with the outer's binding
// columns as arguments. With Memo set, results are cached per distinct
// argument combination so the function runs once per distinct binding
// (but cache lookups still cost CPU).
type ProbeJoin struct {
	Outer       exec.Operator
	Entry       *catalog.Entry
	OuterArgIdx []int      // positions in the outer row supplying the arguments
	Residual    *expr.Pred // over Outer.Schema()‖function schema; may be nil
	Memo        bool
	InnerAlias  string

	innerSch *schema.Schema
	out      *schema.Schema
	cache    map[string][]value.Row
	keyBuf   []byte // memo-key scratch
	loop     exec.LoopJoin
	batch    []value.Row
	pos      int
	calls    int64
}

// NewProbeJoin builds a repeated-probe join against a function relation.
// OuterArgIdx[i] supplies the value of Entry.ArgCols[i].
func NewProbeJoin(outer exec.Operator, e *catalog.Entry, outerArgIdx []int, residual expr.Expr, memo bool, innerAlias string) *ProbeJoin {
	is := e.FnSchema
	if innerAlias != "" {
		is = is.Rename(innerAlias)
	}
	return &ProbeJoin{
		Outer:       outer,
		Entry:       e,
		OuterArgIdx: outerArgIdx,
		Residual:    expr.CompilePred(residual),
		Memo:        memo,
		InnerAlias:  innerAlias,
		innerSch:    is,
		out:         outer.Schema().Concat(is),
	}
}

// Schema implements exec.Operator.
func (j *ProbeJoin) Schema() *schema.Schema { return j.out }

// Open implements exec.Operator.
func (j *ProbeJoin) Open(ctx *exec.Context) error {
	j.Residual.Bind(ctx.Params)
	j.cache = map[string][]value.Row{}
	j.loop.Reset()
	j.batch = nil
	j.pos = 0
	j.calls = 0
	return j.Outer.Open(ctx)
}

// Calls reports how many function invocations the last execution made.
func (j *ProbeJoin) Calls() int64 { return j.calls }

// invoke returns the function's rows for outer row r's binding columns.
// A memo hit encodes the key into the join's scratch and allocates
// nothing; the arguments are projected only for a call.
func (j *ProbeJoin) invoke(ctx *exec.Context, r value.Row) ([]value.Row, error) {
	if !j.Memo {
		return j.call(ctx, r.Project(j.OuterArgIdx))
	}
	j.keyBuf = r.AppendKey(j.keyBuf[:0], j.OuterArgIdx)
	if rows, ok := j.cache[string(j.keyBuf)]; ok {
		ctx.Counter.CPUTuples++ // cache hit lookup
		return rows, nil
	}
	rows, err := j.call(ctx, r.Project(j.OuterArgIdx))
	if err != nil {
		return nil, err
	}
	j.cache[string(j.keyBuf)] = rows
	return rows, nil
}

func (j *ProbeJoin) call(ctx *exec.Context, args value.Row) ([]value.Row, error) {
	ctx.Counter.FnCalls++
	j.calls++
	rows, err := j.Entry.Fn(args)
	if err != nil {
		return nil, fmt.Errorf("udr: invoking %s: %w", j.Entry.Name, err)
	}
	ctx.Counter.CPUTuples += int64(len(rows))
	return rows, nil
}

// NextBatch implements exec.Operator.
func (j *ProbeJoin) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return j.loop.Fill(ctx, dst, max, j.Outer, j.Residual, j.apply, j.result)
}

// apply invokes the function on outer row r's binding columns. A NULL
// argument equals no argument column, so it yields no rows and no call.
func (j *ProbeJoin) apply(ctx *exec.Context, r value.Row) error {
	j.batch, j.pos = nil, 0
	for _, i := range j.OuterArgIdx {
		if r[i].IsNull() {
			return nil
		}
	}
	batch, err := j.invoke(ctx, r)
	j.batch = batch
	return err
}

// result returns the current invocation's next row.
func (j *ProbeJoin) result(*exec.Context) (value.Row, bool, error) {
	if j.pos >= len(j.batch) {
		return nil, false, nil
	}
	j.pos++
	return j.batch[j.pos-1], true, nil
}

// Close implements exec.Operator.
func (j *ProbeJoin) Close(ctx *exec.Context) {
	j.loop.Release()
	j.cache = nil
	j.Outer.Close(ctx)
}

// ConsecutiveScan is the Filter-Join access path for a function relation:
// given the distinct argument set (the filter set), it invokes the
// function once per distinct binding — consecutively, which is where the
// paper's locality benefit comes from — and streams all resulting rows.
type ConsecutiveScan struct {
	Entry *catalog.Entry
	Keys  *exec.KeySet
	alias *schema.Schema
	ki    int
	batch []value.Row
	pos   int
	calls int64
}

// NewConsecutiveScan builds the consecutive-invocation scan.
func NewConsecutiveScan(e *catalog.Entry, keys *exec.KeySet, innerAlias string) *ConsecutiveScan {
	is := e.FnSchema
	if innerAlias != "" {
		is = is.Rename(innerAlias)
	}
	return &ConsecutiveScan{Entry: e, Keys: keys, alias: is}
}

// Schema implements exec.Operator.
func (s *ConsecutiveScan) Schema() *schema.Schema { return s.alias }

// Open implements exec.Operator.
func (s *ConsecutiveScan) Open(*exec.Context) error {
	s.ki = 0
	s.batch = nil
	s.pos = 0
	s.calls = 0
	return nil
}

// Calls reports how many invocations the last execution made.
func (s *ConsecutiveScan) Calls() int64 { return s.calls }

// NextBatch implements exec.Operator by lifting the row step.
func (s *ConsecutiveScan) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	return exec.FillRows(ctx, dst, max, s.next)
}

// next produces one function result row, invoking the function for the
// next distinct binding when the current invocation's rows run out.
func (s *ConsecutiveScan) next(ctx *exec.Context) (value.Row, bool, error) {
	for {
		if s.pos < len(s.batch) {
			r := s.batch[s.pos]
			s.pos++
			ctx.Counter.CPUTuples++
			return r, true, nil
		}
		keys := s.Keys.Rows()
		if s.ki >= len(keys) {
			return nil, false, nil
		}
		args := keys[s.ki]
		s.ki++
		ctx.Counter.FnCalls++
		s.calls++
		rows, err := s.Entry.Fn(args)
		if err != nil {
			return nil, false, fmt.Errorf("udr: invoking %s: %w", s.Entry.Name, err)
		}
		s.batch = rows
		s.pos = 0
	}
}

// Close implements exec.Operator.
func (s *ConsecutiveScan) Close(*exec.Context) {}
