package sql

import (
	"fmt"
	"strings"

	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// BindSelect resolves a parsed SELECT against the given schema resolver
// (normally the catalog) and produces a logical query block.
//
// Aggregation queries follow the block convention: the select list must
// be the grouping columns (in any order matching the GROUP BY set)
// followed by the aggregate functions.
func BindSelect(res query.SchemaResolver, st *SelectStmt) (*query.Block, error) {
	return BindSelectArgs(res, st, nil)
}

// BindSelectArgs is BindSelect with bind-parameter values: every AParam
// in the statement becomes an expr.Param planned with args[Idx] (or an
// unbound Param when the index has no value, as in prepare-time EXPLAIN).
func BindSelectArgs(res query.SchemaResolver, st *SelectStmt, args []value.Value) (*query.Block, error) {
	b, _, err := BindSelectLayout(res, st, args)
	return b, err
}

// BindSelectLayout is BindSelectArgs that also returns the block's
// layout, which binding computes anyway, so a caller that needs it does
// not resolve the relations again.
func BindSelectLayout(res query.SchemaResolver, st *SelectStmt, args []value.Value) (*query.Block, *query.Layout, error) {
	b := &query.Block{Distinct: st.Distinct, Rels: make([]query.RelRef, 0, len(st.From))}
	for _, r := range st.From {
		b.Rels = append(b.Rels, query.RelRef{Name: r.Name, Alias: r.Alias})
	}
	layout, err := b.Layout(res)
	if err != nil {
		return nil, nil, err
	}
	b, err = bindBody(res, b, layout, st, args)
	return b, layout, err
}

// bindBody binds the clauses of st into b against b's layout.
func bindBody(res query.SchemaResolver, b *query.Block, layout *query.Layout, st *SelectStmt, args []value.Value) (*query.Block, error) {

	if st.Where != nil {
		for _, conj := range splitConjuncts(st.Where) {
			e, err := bindExpr(conj, layout, false, args)
			if err != nil {
				return nil, err
			}
			b.Preds = append(b.Preds, e)
		}
	}

	hasAgg := false
	for _, it := range st.Items {
		if anyNode(it.Expr, is[ACall]) {
			hasAgg = true
			break
		}
	}
	if len(st.GroupBy) > 0 {
		hasAgg = true
	}

	switch {
	case st.Star:
		if hasAgg {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
		}
		// Proj == nil means all columns.

	case hasAgg:
		groupSet := map[int]bool{}
		for _, g := range st.GroupBy {
			idx, err := layout.Schema.IndexOf(g.Table, g.Name)
			if err != nil {
				return nil, err
			}
			groupSet[idx] = true
		}
		seenAgg := false
		for _, it := range st.Items {
			if call, ok := it.Expr.(ACall); ok {
				spec, err := bindAgg(call, layout, it.Alias, args)
				if err != nil {
					return nil, err
				}
				b.Aggs = append(b.Aggs, spec)
				seenAgg = true
				continue
			}
			if seenAgg {
				return nil, fmt.Errorf("sql: grouping columns must precede aggregates in the select list")
			}
			col, ok := it.Expr.(AColumn)
			if !ok {
				return nil, fmt.Errorf("sql: non-aggregate select item %v must be a grouping column", it.Expr)
			}
			idx, err := layout.Schema.IndexOf(col.Table, col.Name)
			if err != nil {
				return nil, err
			}
			if len(st.GroupBy) > 0 && !groupSet[idx] {
				return nil, fmt.Errorf("sql: column %s is not in GROUP BY", layout.Schema.Col(idx).QualifiedName())
			}
			b.GroupBy = append(b.GroupBy, idx)
			delete(groupSet, idx)
		}
		if len(groupSet) > 0 {
			return nil, fmt.Errorf("sql: every GROUP BY column must appear in the select list")
		}
		if len(b.Aggs) == 0 && len(b.GroupBy) == 0 {
			return nil, fmt.Errorf("sql: aggregation query selects nothing")
		}

	default:
		for _, it := range st.Items {
			e, err := bindExpr(it.Expr, layout, false, args)
			if err != nil {
				return nil, err
			}
			name := it.Alias
			if name == "" {
				if c, ok := it.Expr.(AColumn); ok {
					name = c.Name
				} else {
					name = e.String()
				}
			}
			b.Proj = append(b.Proj, query.Output{Expr: e, Name: name})
		}
	}

	// HAVING and ORDER BY bind against the OUTPUT layout. For SELECT *
	// the output is the relation layout itself (qualified names intact).
	if st.Having != nil || len(st.OrderBy) > 0 {
		outSchema := layout.Schema
		if b.HasAggregation() || b.Proj != nil {
			var err error
			outSchema, err = b.OutputSchema(res, "")
			if err != nil {
				return nil, err
			}
		}
		outLayout := &query.Layout{Schema: outSchema}
		if st.Having != nil {
			if !b.HasAggregation() {
				return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
			}
			if anyNode(st.Having, is[ACall]) {
				return nil, fmt.Errorf("sql: reference aggregates in HAVING through their select-list aliases")
			}
			h, err := bindExpr(st.Having, outLayout, false, args)
			if err != nil {
				return nil, fmt.Errorf("sql: in HAVING: %w", err)
			}
			b.Having = h
		}
		for _, ob := range st.OrderBy {
			idx, err := resolveOutputColumn(b, layout, outSchema, ob.Col)
			if err != nil {
				return nil, fmt.Errorf("sql: in ORDER BY: %w", err)
			}
			b.OrderBy = append(b.OrderBy, query.OrderItem{Col: idx, Desc: ob.Desc})
		}
	}
	b.Limit = st.Limit
	return b, nil
}

// resolveOutputColumn locates a column reference within a block's output:
// by (possibly qualified) output name first; failing that, by the source
// column a projection output copies (so "ORDER BY t.v" works when t.v is
// projected under its own name).
func resolveOutputColumn(b *query.Block, layout *query.Layout, outSchema *schema.Schema, col AColumn) (int, error) {
	if idx, err := outSchema.IndexOf(col.Table, col.Name); err == nil {
		return idx, nil
	}
	if col.Table != "" {
		if idx, err := outSchema.IndexOf("", col.Name); err == nil {
			return idx, nil
		}
	}
	// Provenance fallback for projection blocks.
	if b.Proj != nil && !b.HasAggregation() {
		if src, err := layout.Schema.IndexOf(col.Table, col.Name); err == nil {
			for i, o := range b.Proj {
				if c, ok := o.Expr.(expr.Col); ok && c.Idx == src {
					return i, nil
				}
			}
		}
	}
	return -1, fmt.Errorf("column %q is not in the select list", colName(col))
}

func colName(c AColumn) string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// splitConjuncts flattens top-level ANDs.
func splitConjuncts(e AExpr) []AExpr {
	if b, ok := e.(ABinary); ok && strings.EqualFold(b.Op, "AND") {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []AExpr{e}
}

func bindAgg(call ACall, layout *query.Layout, alias string, args []value.Value) (expr.AggSpec, error) {
	kind, ok := expr.AggKindByName(call.Name)
	if !ok {
		return expr.AggSpec{}, fmt.Errorf("sql: unknown aggregate function %q", call.Name)
	}
	spec := expr.AggSpec{Kind: kind, Name: alias}
	if call.Star {
		if kind != expr.AggCount {
			return expr.AggSpec{}, fmt.Errorf("sql: %s(*) is not valid", strings.ToUpper(call.Name))
		}
		if spec.Name == "" {
			spec.Name = "count"
		}
		return spec, nil
	}
	arg, err := bindExpr(call.Arg, layout, false, args)
	if err != nil {
		return expr.AggSpec{}, err
	}
	spec.Arg = arg
	if spec.Name == "" {
		spec.Name = spec.String()
	}
	return spec, nil
}

func bindExpr(e AExpr, layout *query.Layout, inAgg bool, args []value.Value) (expr.Expr, error) {
	switch x := e.(type) {
	case AColumn:
		idx, err := layout.Schema.IndexOf(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return expr.NewCol(idx, layout.Schema.Col(idx).QualifiedName()), nil
	case ALit:
		return expr.NewLit(x.V), nil
	case AParam:
		pv := expr.Param{Idx: x.Idx}
		if x.Idx >= 0 && x.Idx < len(args) {
			pv.V, pv.Has = args[x.Idx], true
		}
		return pv, nil
	case ANot:
		kid, err := bindExpr(x.X, layout, inAgg, args)
		if err != nil {
			return nil, err
		}
		return expr.Not{Kid: kid}, nil
	case ACall:
		return nil, fmt.Errorf("sql: aggregate %q not allowed here", x.Name)
	case ABinary:
		l, err := bindExpr(x.L, layout, inAgg, args)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(x.R, layout, inAgg, args)
		if err != nil {
			return nil, err
		}
		switch strings.ToUpper(x.Op) {
		case "AND":
			return expr.NewAnd(l, r), nil
		case "OR":
			return expr.NewOr(l, r), nil
		case "=":
			return expr.NewCmp(expr.EQ, l, r), nil
		case "<>":
			return expr.NewCmp(expr.NE, l, r), nil
		case "<":
			return expr.NewCmp(expr.LT, l, r), nil
		case "<=":
			return expr.NewCmp(expr.LE, l, r), nil
		case ">":
			return expr.NewCmp(expr.GT, l, r), nil
		case ">=":
			return expr.NewCmp(expr.GE, l, r), nil
		case "+":
			return expr.Arith{Op: expr.Add, L: l, R: r}, nil
		case "-":
			return expr.Arith{Op: expr.Sub, L: l, R: r}, nil
		case "*":
			return expr.Arith{Op: expr.Mul, L: l, R: r}, nil
		case "/":
			return expr.Arith{Op: expr.Div, L: l, R: r}, nil
		}
		return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
	}
	return nil, fmt.Errorf("sql: cannot bind expression %T", e)
}
