package magic

import (
	"fmt"
	"strings"

	"filterjoin/internal/expr"
	"filterjoin/internal/query"
)

// RenderBlock renders a query block as SQL text. Column references print
// through the qualified names captured at bind time, so the output is
// readable (and re-parseable for blocks built by the SQL front-end).
func RenderBlock(res query.SchemaResolver, b *query.Block) (string, error) {
	layout, err := b.Layout(res)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if b.Distinct {
		sb.WriteString("DISTINCT ")
	}
	switch {
	case b.HasAggregation():
		first := true
		for _, g := range b.GroupBy {
			if !first {
				sb.WriteString(", ")
			}
			sb.WriteString(layout.Schema.Col(g).QualifiedName())
			first = false
		}
		for _, a := range b.Aggs {
			if !first {
				sb.WriteString(", ")
			}
			sb.WriteString(renderAgg(a, layout))
			first = false
		}
	case b.Proj != nil:
		for i, o := range b.Proj {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(renderExpr(o.Expr, layout))
			if o.Name != "" && o.Name != renderExpr(o.Expr, layout) {
				sb.WriteString(" AS ")
				sb.WriteString(o.Name)
			}
		}
	default:
		sb.WriteString("*")
	}
	sb.WriteString("\nFROM ")
	for i, r := range b.Rels {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(r.Name)
		if r.Alias != "" && r.Alias != r.Name {
			sb.WriteString(" ")
			sb.WriteString(r.Alias)
		}
	}
	if len(b.Preds) > 0 {
		sb.WriteString("\nWHERE ")
		for i, p := range b.Preds {
			if i > 0 {
				sb.WriteString("\n  AND ")
			}
			sb.WriteString(renderExpr(p, layout))
		}
	}
	if len(b.GroupBy) > 0 {
		sb.WriteString("\nGROUP BY ")
		for i, g := range b.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(layout.Schema.Col(g).QualifiedName())
		}
	}
	if b.Having != nil || len(b.OrderBy) > 0 || b.Limit > 0 {
		outSchema, err := b.OutputSchema(res, "")
		if err != nil {
			return "", err
		}
		outLayout := &query.Layout{Schema: outSchema}
		if b.Having != nil {
			sb.WriteString("\nHAVING ")
			sb.WriteString(renderExpr(b.Having, outLayout))
		}
		if len(b.OrderBy) > 0 {
			sb.WriteString("\nORDER BY ")
			for i, oi := range b.OrderBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(outSchema.Col(oi.Col).QualifiedName())
				if oi.Desc {
					sb.WriteString(" DESC")
				}
			}
		}
		if b.Limit > 0 {
			fmt.Fprintf(&sb, "\nLIMIT %d", b.Limit)
		}
	}
	return sb.String(), nil
}

func renderAgg(a expr.AggSpec, layout *query.Layout) string {
	var inner string
	if a.Arg == nil {
		inner = "*"
	} else {
		inner = renderExpr(a.Arg, layout)
	}
	s := fmt.Sprintf("%s(%s)", a.Kind, inner)
	if a.Name != "" && a.Name != s {
		s += " AS " + a.Name
	}
	return s
}

// renderExpr prints an expression with layout-resolved column names, so
// even programmatically built expressions (whose Col.Name may be empty)
// render readably.
func renderExpr(e expr.Expr, layout *query.Layout) string {
	switch x := e.(type) {
	case expr.Col:
		if x.Idx >= 0 && x.Idx < layout.Schema.Len() {
			return layout.Schema.Col(x.Idx).QualifiedName()
		}
		return x.String()
	case expr.Cmp:
		return fmt.Sprintf("%s %s %s", renderExpr(x.L, layout), x.Op, renderExpr(x.R, layout))
	case expr.And:
		parts := make([]string, len(x.Kids))
		for i, k := range x.Kids {
			parts[i] = renderExpr(k, layout)
		}
		return strings.Join(parts, " AND ")
	case expr.Or:
		parts := make([]string, len(x.Kids))
		for i, k := range x.Kids {
			parts[i] = "(" + renderExpr(k, layout) + ")"
		}
		return strings.Join(parts, " OR ")
	case expr.Not:
		return "NOT (" + renderExpr(x.Kid, layout) + ")"
	case expr.Arith:
		return fmt.Sprintf("(%s %s %s)", renderExpr(x.L, layout), x.Op, renderExpr(x.R, layout))
	default:
		return e.String()
	}
}

// SQL renders the whole rewriting in the Fig 2 style: three CREATE VIEW
// statements followed by the rewritten query.
func (r *Rewritten) SQL() (string, error) {
	var sb strings.Builder
	for _, name := range []string{r.PartialResult, r.FilterView, r.RestrictedView} {
		e, err := r.Cat.Get(name)
		if err != nil {
			return "", err
		}
		body, err := RenderBlock(r.Cat, e.ViewDef)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "CREATE VIEW %s AS\n(%s);\n\n", name, indent(body))
	}
	final, err := RenderBlock(r.Cat, r.Final)
	if err != nil {
		return "", err
	}
	sb.WriteString(final)
	sb.WriteString(";\n")
	return sb.String(), nil
}

func indent(s string) string {
	return strings.ReplaceAll(s, "\n", "\n ")
}
