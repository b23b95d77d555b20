package expr

import (
	"fmt"

	"filterjoin/internal/value"
)

// Param is a bind-parameter slot: the i-th parameter of a prepared (or
// auto-parameterized) statement. A Param carries the value it was planned
// with (V, when Has is set) so the optimizer can estimate selectivities
// and plan index probes exactly as it would for a literal; at execution
// time BindParams substitutes the current binding from the execution
// context, so one cached plan serves every value in its selectivity
// class.
type Param struct {
	Idx int         // 0-based parameter position
	V   value.Value // the planning-time value
	Has bool        // false for an unbound (prepare-only) parameter
}

// Value is the one binding rule: a slot in range of params takes its
// binding, otherwise a planned Param keeps its planning-time value,
// otherwise the parameter is unbound. Eval, BindParams and the compiled
// kernels' operands all resolve a Param through it.
func (p Param) Value(params []value.Value) (value.Value, error) {
	switch {
	case p.Idx >= 0 && p.Idx < len(params):
		return params[p.Idx], nil
	case p.Has:
		return p.V, nil
	}
	return value.Null, fmt.Errorf("expr: unbound parameter ?%d", p.Idx+1)
}

// Eval implements Expr. A bound Param behaves exactly like a literal of
// its planning-time value — this is the fallback for plans executed
// outside the serving layer (no ctx.Params); the serving layer always
// rebinds via BindParams before evaluation.
func (p Param) Eval(value.Row) (value.Value, error) { return p.Value(nil) }

// Shift implements Expr.
func (p Param) Shift(offset int) Expr { return Shift(p, offset) }

// String implements Expr. A bound Param renders exactly like the literal
// it was planned with, so plan displays (and their goldens) are
// independent of whether a constant arrived as a literal or a binding;
// an unbound Param renders as its placeholder.
func (p Param) String() string {
	if !p.Has {
		return fmt.Sprintf("?%d", p.Idx+1)
	}
	return Lit{V: p.V}.String()
}

// CollectParams adds the index of every Param in e to set.
func CollectParams(e Expr, set map[int]bool) {
	mapLeaves(e, func(l Expr) (Expr, bool) {
		if p, ok := l.(Param); ok {
			set[p.Idx] = true
		}
		return l, false
	})
}

// binding is one execution's parameter values; its leaf method is the
// mapLeaves callback that replaces each resolvable Param by a literal of
// its value. An unbound Param stays, and errors when evaluated.
type binding []value.Value

func (b binding) leaf(l Expr) (Expr, bool) {
	if p, ok := l.(Param); ok {
		if v, err := p.Value(b); err == nil {
			return Lit{V: v}, true
		}
	}
	return l, false
}

// BindParams returns e with every Param replaced by the literal value of
// its current binding (Param.Value). When e holds no Param, or no
// bindings are supplied, e is returned unchanged, so the rewrite is free
// for the non-parameterized plans that dominate operator Opens.
func BindParams(e Expr, params []value.Value) Expr {
	if len(params) == 0 {
		return e
	}
	out, _ := mapLeaves(e, binding(params).leaf)
	return out
}

// BindParamsList applies BindParams to each expression. The slice is
// shared when no element holds a Param.
func BindParamsList(es []Expr, params []value.Value) []Expr {
	if len(params) == 0 {
		return es
	}
	if out, changed := mapKids(es, binding(params).leaf); changed {
		return out
	}
	return es
}

// BindAggs returns aggregate specs with every Arg rebound via BindParams.
// The slice is shared when no spec holds a Param.
func BindAggs(aggs []AggSpec, params []value.Value) []AggSpec {
	if len(params) == 0 {
		return aggs
	}
	var out []AggSpec
	for i, a := range aggs {
		arg, changed := mapLeaves(a.Arg, binding(params).leaf)
		if changed && out == nil {
			out = append([]AggSpec(nil), aggs...)
		}
		if out != nil {
			out[i].Arg = arg
		}
	}
	if out == nil {
		return aggs
	}
	return out
}
