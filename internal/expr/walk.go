package expr

// mapLeaves is the one function that knows which nodes have operands.
// It passes every leaf (Col, Lit, Param) to f, which returns the leaf's
// replacement and whether it changed, and rebuilds a node only when one
// of its operands changed: an unchanged tree comes back as e itself, so
// a visit is a rewrite whose f never reports a change. Callers detect a
// change by the flag, never by comparing Exprs (And and Or hold slices,
// so == on them panics).
func mapLeaves(e Expr, f func(Expr) (Expr, bool)) (Expr, bool) {
	switch x := e.(type) {
	case Cmp:
		l, lc := mapLeaves(x.L, f)
		r, rc := mapLeaves(x.R, f)
		if !lc && !rc {
			return e, false
		}
		return Cmp{Op: x.Op, L: l, R: r}, true
	case Arith:
		l, lc := mapLeaves(x.L, f)
		r, rc := mapLeaves(x.R, f)
		if !lc && !rc {
			return e, false
		}
		return Arith{Op: x.Op, L: l, R: r}, true
	case Not:
		k, c := mapLeaves(x.Kid, f)
		if !c {
			return e, false
		}
		return Not{Kid: k}, true
	case And:
		if kids, c := mapKids(x.Kids, f); c {
			return And{Kids: kids}, true
		}
		return e, false
	case Or:
		if kids, c := mapKids(x.Kids, f); c {
			return Or{Kids: kids}, true
		}
		return e, false
	default:
		// Col, Lit, Param: the leaves.
		return f(e)
	}
}

// mapKids applies mapLeaves to each of es and copies the slice at the
// first change; an unchanged list comes back as (nil, false).
func mapKids(es []Expr, f func(Expr) (Expr, bool)) ([]Expr, bool) {
	var out []Expr
	for i, e := range es {
		ne, c := mapLeaves(e, f)
		if c && out == nil {
			out = make([]Expr, len(es))
			copy(out, es)
		}
		if out != nil {
			out[i] = ne
		}
	}
	return out, out != nil
}

// Shift returns e with every column index increased by offset: a
// relation-local predicate shifted to its place in a concatenated row,
// or back with a negative offset.
func Shift(e Expr, offset int) Expr {
	out, _ := mapLeaves(e, func(l Expr) (Expr, bool) {
		if c, ok := l.(Col); ok && offset != 0 {
			return Col{Idx: c.Idx + offset, Name: c.Name}, true
		}
		return l, false
	})
	return out
}

// Remap rewrites every column reference in e through the mapping m, where
// m[oldIdx] is the new index (or -1 when the column is unavailable, which
// surfaces as an out-of-range error at evaluation time). The optimizer
// stores predicates in the query block's global column layout and remaps
// them into each physical plan's actual output layout.
func Remap(e Expr, m []int) Expr {
	out, _ := mapLeaves(e, func(l Expr) (Expr, bool) {
		c, ok := l.(Col)
		if !ok {
			return l, false
		}
		ni := -1
		if c.Idx >= 0 && c.Idx < len(m) {
			ni = m[c.Idx]
		}
		return Col{Idx: ni, Name: c.Name}, ni != c.Idx
	})
	return out
}

// RemapAgg rewrites an aggregate spec's argument through m.
func RemapAgg(a AggSpec, m []int) AggSpec {
	a.Arg = Remap(a.Arg, m)
	return a
}

// CollectCols adds every column index e references to set.
func CollectCols(e Expr, set map[int]bool) {
	mapLeaves(e, func(l Expr) (Expr, bool) {
		if c, ok := l.(Col); ok {
			set[c.Idx] = true
		}
		return l, false
	})
}

// Mappable reports whether every column e references has a non-negative
// image under m, i.e. the expression can be evaluated against the layout
// m maps into.
func Mappable(e Expr, m []int) bool {
	ok := true
	mapLeaves(e, func(l Expr) (Expr, bool) {
		if c, isCol := l.(Col); isCol && (c.Idx < 0 || c.Idx >= len(m) || m[c.Idx] < 0) {
			ok = false
		}
		return l, false
	})
	return ok
}
