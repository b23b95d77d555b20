package sql

import (
	"fmt"
	"sort"
	"strings"

	"filterjoin/internal/value"
)

// Normalize rewrites a SELECT for plan caching: literals in WHERE
// comparison conjuncts (the selections whose constants the parametric
// coster classifies) are replaced by parameter slots, and the extracted
// values are returned in slot order. Literals anywhere else — select
// items, aggregate arguments, HAVING, LIMIT — stay literal: they change
// the plan's shape or output, not just a selectivity, so statements
// differing there get their own cache entries.
//
// A statement that already carries explicit placeholders (`?`/`$n`) is
// returned unchanged with ok=false: prepared text is already
// parameterized exactly as its author intended, and mixing the two
// numbering schemes would corrupt the argument list.
//
// The input statement is never mutated; the rewritten statement shares
// all untouched nodes.
func Normalize(st *SelectStmt) (norm *SelectStmt, extracted []value.Value, ok bool) {
	if HasParams(st) {
		return st, nil, false
	}
	if st.Where == nil {
		return st, nil, true
	}
	n := &normState{}
	out := *st
	out.Where = n.rewrite(st.Where)
	return &out, n.vals, true
}

type normState struct{ vals []value.Value }

// rewrite descends AND/OR/NOT connectives and parameterizes comparison
// leaves where one side is a literal and the other references a column.
func (n *normState) rewrite(e AExpr) AExpr {
	b, isBin := e.(ABinary)
	if !isBin {
		if nt, ok := e.(ANot); ok {
			return ANot{X: n.rewrite(nt.X)}
		}
		return e
	}
	switch strings.ToUpper(b.Op) {
	case "AND", "OR":
		return ABinary{Op: b.Op, L: n.rewrite(b.L), R: n.rewrite(b.R)}
	case "=", "<>", "<", "<=", ">", ">=":
		l, lLit := b.L.(ALit)
		r, rLit := b.R.(ALit)
		switch {
		case lLit && !rLit && refersColumn(b.R):
			return ABinary{Op: b.Op, L: n.slot(l.V), R: b.R}
		case rLit && !lLit && refersColumn(b.L):
			return ABinary{Op: b.Op, L: b.L, R: n.slot(r.V)}
		}
	}
	return e
}

func (n *normState) slot(v value.Value) AParam {
	n.vals = append(n.vals, v)
	return AParam{Idx: len(n.vals) - 1}
}

// refersColumn reports whether e references at least one column and no
// aggregate call (a pure column-side expression a selection predicate
// compares against a constant).
func refersColumn(e AExpr) bool {
	return anyNode(e, is[AColumn]) && !anyNode(e, is[ACall])
}

// HasParams reports whether any explicit placeholder appears in the
// statement.
func HasParams(st *SelectStmt) bool { return anyClause(st, is[AParam]) }

// NumParams returns the number of parameter slots a statement expects,
// validating that the used indexes are exactly 0..n-1 (so $1,$3 without
// $2 is rejected at Prepare time, not with a confusing unbound error at
// execution).
func NumParams(st *SelectStmt) (int, error) {
	set := map[int]bool{}
	anyClause(st, func(e AExpr) bool {
		if p, ok := e.(AParam); ok {
			set[p.Idx] = true
		}
		return false
	})
	if len(set) == 0 {
		return 0, nil
	}
	idxs := make([]int, 0, len(set))
	for i := range set {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for want, got := range idxs {
		if got != want {
			return 0, fmt.Errorf("sql: parameter $%d is used but $%d is not", idxs[len(idxs)-1]+1, want+1)
		}
	}
	return len(idxs), nil
}

// FormatSelect renders a SELECT in canonical form — uppercase keywords,
// single spacing, explicit `$n` placeholders — so textually different
// spellings of the same statement map to one plan-cache key. The text
// parses back to the same statement: a float literal keeps its '.' or
// exponent and a quote inside a string is doubled, so statements that
// differ in a literal's kind or text never share a key.
func FormatSelect(st *SelectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if st.Distinct {
		b.WriteString("DISTINCT ")
	}
	if st.Star {
		b.WriteString("*")
	} else {
		for i, it := range st.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(formatAExpr(it.Expr))
			if it.Alias != "" {
				b.WriteString(" AS ")
				b.WriteString(it.Alias)
			}
		}
	}
	b.WriteString(" FROM ")
	for i, r := range st.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.Name)
		if r.Alias != "" {
			b.WriteString(" ")
			b.WriteString(r.Alias)
		}
	}
	if st.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(formatAExpr(st.Where))
	}
	if len(st.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range st.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(colName(c))
		}
	}
	if st.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(formatAExpr(st.Having))
	}
	if len(st.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range st.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(colName(o.Col))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if st.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", st.Limit)
	}
	return b.String()
}

func formatAExpr(e AExpr) string {
	switch x := e.(type) {
	case AColumn:
		return colName(x)
	case ALit:
		s := x.V.String()
		switch {
		case x.V.Kind() == value.KindString:
			return "'" + strings.ReplaceAll(s, "'", "''") + "'"
		case x.V.Kind() == value.KindFloat && !strings.ContainsAny(s, ".e"):
			return s + ".0"
		}
		return s
	case AParam:
		return fmt.Sprintf("$%d", x.Idx+1)
	case ANot:
		return "NOT (" + formatAExpr(x.X) + ")"
	case ACall:
		if x.Star {
			return strings.ToUpper(x.Name) + "(*)"
		}
		return strings.ToUpper(x.Name) + "(" + formatAExpr(x.Arg) + ")"
	case ABinary:
		op := strings.ToUpper(x.Op)
		return "(" + formatAExpr(x.L) + " " + op + " " + formatAExpr(x.R) + ")"
	default:
		return fmt.Sprintf("%v", e)
	}
}
