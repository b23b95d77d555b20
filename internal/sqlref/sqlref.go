// Package sqlref is a test-only SQL evaluator: it answers a bound
// query.Block from SQL semantics alone, the reference every differential
// test compares plans with. FROM is nested loops in the order written;
// each WHERE conjunct goes through expr.EvalBool at the first relation
// that binds all its columns; grouping and aggregates are written here.
// No hashing, index or key encoding: it shares no code path with the
// operators it checks. Only _test.go files may import it.
package sqlref

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"filterjoin/internal/catalog"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/value"
)

// Check returns nil when each of answers is a correct answer to b over
// cat, else how the first wrong one differs: SQL's rows as a multiset,
// or with a LIMIT as many as SQL keeps, all drawn from SQL's rows. With
// an ORDER BY, row i must carry the sort key of SQL's row i, so ties may
// come in any order and a LIMIT may cut a tie anywhere.
func Check(cat *catalog.Catalog, b *query.Block, answers ...[]value.Row) error {
	unlimited := *b
	unlimited.Limit = 0 // Eval would cut a tie where the answer need not
	all, err := Eval(cat, &unlimited)
	for i := 0; err == nil && i < len(answers); i++ {
		err = check(b, all, answers[i])
	}
	return err
}

func check(b *query.Block, all, got []value.Row) error {
	n := len(all)
	if b.Limit > 0 {
		n = min(n, b.Limit)
	}
	if len(got) != n {
		return fmt.Errorf("sqlref: %d rows, SQL gives %d", len(got), n)
	}
	for i := range got {
		if orderCmp(got[i], all[i], b.OrderBy) != 0 {
			return fmt.Errorf("sqlref: row %d %v is out of ORDER BY order; SQL has %v there", i, got[i], all[i])
		}
	}
	g, w := Canon(got), Canon(all)
	for i, j := 0, 0; i < len(g); j++ {
		switch {
		case j == len(w) || g[i] < w[j]:
			return fmt.Errorf("sqlref: row %s is not in SQL's answer", g[i])
		case g[i] == w[j]:
			i++
		case n == len(all):
			return fmt.Errorf("sqlref: row %s of SQL's answer is missing", w[j])
		}
	}
	return nil
}

// Canon renders rows as a sorted multiset, one string per row. Floats
// keep 12 digits: sums of the same values in any order render alike.
func Canon(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
			if v.Kind() == value.KindFloat {
				vals[j] = strconv.FormatFloat(v.Float(), 'g', 12, 64)
			}
		}
		out[i] = strings.Join(vals, "|")
	}
	sort.Strings(out)
	return out
}

// Eval returns b's answer over the data in cat: ordered when b has an
// ORDER BY, truncated to b's LIMIT.
func Eval(cat *catalog.Catalog, b *query.Block) ([]value.Row, error) {
	rows, err := from(cat, b)
	switch {
	case err != nil:
		return nil, err
	case b.HasAggregation():
		if rows, err = group(b, rows); err != nil {
			return nil, err
		}
	case b.Proj != nil:
		for i, r := range rows {
			rows[i] = make(value.Row, len(b.Proj))
			for j, p := range b.Proj {
				if rows[i][j], err = p.Expr.Eval(r); err != nil {
					return nil, err
				}
			}
		}
	}
	if b.Distinct && len(rows) > 0 {
		d := &query.Block{GroupBy: make([]int, len(rows[0]))} // DISTINCT groups on every column
		for i := range d.GroupBy {
			d.GroupBy[i] = i
		}
		rows, _ = group(d, rows) // no aggregate, no HAVING: no error
	}
	slices.SortStableFunc(rows, func(x, y value.Row) int { return orderCmp(x, y, b.OrderBy) })
	if b.Limit > 0 && len(rows) > b.Limit {
		rows = rows[:b.Limit]
	}
	return rows, nil
}

// from is the FROM and WHERE of b: nested loops over b.Rels in order,
// each conjunct applied at the first relation that binds all its columns.
func from(cat *catalog.Catalog, b *query.Block) ([]value.Row, error) {
	l, err := b.Layout(cat)
	if err != nil {
		return nil, err
	}
	at := make([][]expr.Expr, len(b.Rels))
	for _, p := range b.Preds {
		rels := append([]int{0}, query.PredRels(p, l).Members()...) // the last one it reads, else the first
		at[rels[len(rels)-1]] = append(at[rels[len(rels)-1]], p)
	}
	rows := []value.Row{{}}
	for i, ref := range b.Rels {
		e, err := cat.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		var stored []value.Row
		switch e.Kind {
		case catalog.KindBase, catalog.KindRemote:
			stored = e.Table.Rows()
		case catalog.KindView:
			if stored, err = Eval(cat, e.ViewDef); err != nil {
				return nil, err
			}
		}
		var next []value.Row
		where := expr.NewAnd(at[i]...)
		buf := make(value.Row, 0, l.Offsets[i]+l.Widths[i])
		for _, outer := range rows {
			inner := stored
			if e.Kind == catalog.KindFunc {
				if inner, err = call(e, b.Preds, l.Offsets[i], outer); err != nil {
					return nil, err
				}
			}
			buf = append(buf[:0], outer...)
			for _, r := range inner {
				buf = append(buf[:len(outer)], r...)
				if ok, err := expr.EvalBool(where, buf); err != nil {
					return nil, err
				} else if ok {
					next = append(next, slices.Clone(buf))
				}
			}
		}
		rows = next
	}
	return rows, nil
}

// call invokes function relation e, its columns at off in the layout,
// with the arguments that conjuncts equate to expressions over outer.
// A NULL argument makes its conjunct unknown, so no call is made.
func call(e *catalog.Entry, preds []expr.Expr, off int, outer value.Row) ([]value.Row, error) {
	args := make(value.Row, len(e.ArgCols))
	for i, a := range e.ArgCols {
		var ok bool
		if args[i], ok = argValue(preds, off+a, outer); !ok {
			return nil, fmt.Errorf("sqlref: no conjunct binds argument %d of %s from the relations before it", a, e.Name)
		} else if args[i].IsNull() {
			return nil, nil
		}
	}
	return e.Fn(args)
}

// argValue evaluates over outer the x of a conjunct col = x or x = col
// that reads outer alone (a column past outer fails to evaluate).
func argValue(preds []expr.Expr, col int, outer value.Row) (value.Value, bool) {
	for _, p := range preds {
		if c, ok := p.(expr.Cmp); ok && c.Op == expr.EQ {
			for _, s := range [2][2]expr.Expr{{c.L, c.R}, {c.R, c.L}} {
				if k, ok := s[0].(expr.Col); ok && k.Idx == col {
					if v, err := s[1].Eval(outer); err == nil {
						return v, true
					}
				}
			}
		}
	}
	return value.Null, false
}

// group sorts rows on b's grouping columns and folds each run of equal
// keys (NULLs together) into one row, the keys then b's aggregates,
// which it keeps when HAVING holds on it.
func group(b *query.Block, rows []value.Row) ([]value.Row, error) {
	keys := make([]query.OrderItem, len(b.GroupBy))
	for i, c := range b.GroupBy {
		keys[i].Col = c
	}
	having := expr.NewAnd(b.Having) // true when there is none
	slices.SortStableFunc(rows, func(x, y value.Row) int { return orderCmp(x, y, keys) })
	groups := [][]value.Row{rows} // without GROUP BY all rows, even none, are one group
	if len(keys) > 0 {
		groups = nil
		for i, r := range rows {
			if i == 0 || orderCmp(rows[i-1], r, keys) != 0 {
				groups = append(groups, nil)
			}
			groups[len(groups)-1] = append(groups[len(groups)-1], r)
		}
	}
	var out []value.Row
	for _, g := range groups {
		row := make(value.Row, 0, len(keys)+len(b.Aggs))
		for _, c := range b.GroupBy {
			row = append(row, g[0][c])
		}
		for _, a := range b.Aggs {
			v, err := aggregate(a, g)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		if ok, err := expr.EvalBool(having, row); err != nil {
			return nil, err
		} else if ok {
			out = append(out, row)
		}
	}
	return out, nil
}

// aggregate computes a over one group. NULL arguments are skipped;
// COUNT of nothing is 0 and every other aggregate of nothing is NULL.
func aggregate(a expr.AggSpec, rows []value.Row) (value.Value, error) {
	var vals []value.Value
	for _, r := range rows {
		v := value.NewInt(1) // COUNT(*) counts rows
		if a.Arg != nil {
			var err error
			if v, err = a.Arg.Eval(r); err != nil {
				return value.Null, err
			}
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch {
	case a.Kind == expr.AggCount:
		return value.NewInt(int64(len(vals))), nil
	case len(vals) == 0:
		return value.Null, nil
	case a.Kind == expr.AggMin:
		return slices.MinFunc(vals, value.Compare), nil
	case a.Kind == expr.AggMax:
		return slices.MaxFunc(vals, value.Compare), nil
	}
	isum, fsum, ints := int64(0), 0.0, true // a SUM of ints is an exact int
	for _, v := range vals {
		f, ok := v.AsFloat()
		if !ok {
			return value.Null, fmt.Errorf("sqlref: %s over non-numeric %s", a.Kind, v.Kind())
		} else if v.Kind() == value.KindInt {
			isum += v.Int()
		} else {
			fsum, ints = fsum+f, false
		}
	}
	if a.Kind == expr.AggAvg {
		return value.NewFloat((fsum + float64(isum)) / float64(len(vals))), nil
	} else if ints {
		return value.NewInt(isum), nil
	}
	return value.NewFloat(fsum + float64(isum)), nil
}

// orderCmp compares x and y on items; NULL sorts first ascending.
func orderCmp(x, y value.Row, items []query.OrderItem) int {
	for _, it := range items {
		if c := value.Compare(x[it.Col], y[it.Col]); c != 0 && it.Desc {
			return -c
		} else if c != 0 {
			return c
		}
	}
	return 0
}
