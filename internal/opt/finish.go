package opt

import (
	"fmt"

	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/stats"
)

// unaryNode finishes a node with the single input prev — the unary twin
// of JoinStep.Keep: n carries what is the operator's own (Kind, Detail,
// Est, Make) and inherits prev's Stats, OutSchema and ColMap wherever
// the literal leaves them unset. rows is a parameter because 0 is an
// estimate, not "unset".
func unaryNode(prev *plan.Node, ord plan.Ordering, rows float64, n *plan.Node) *plan.Node {
	n.Children, n.Rows, n.Rels = []*plan.Node{prev}, rows, prev.Rels
	if n.Stats == nil {
		n.Stats = prev.Stats
	}
	if n.OutSchema == nil {
		n.OutSchema = prev.OutSchema
	}
	if n.ColMap == nil {
		n.ColMap = prev.ColMap
	}
	return plan.NewNode(ord, n)
}

// finish layers the block's output shape — constant predicates,
// aggregation or projection, DISTINCT — on top of the best join.
func (o *Optimizer) finish(ctx *Ctx, joined *plan.Node) (*plan.Node, error) {
	node := joined
	b := ctx.Block

	// Constant predicates (no column references) are applied once on top.
	var consts []expr.Expr
	for _, p := range ctx.Preds {
		if p.Rels == 0 {
			consts = append(consts, p.Expr)
		}
	}
	if len(consts) > 0 {
		pred := expr.NewAnd(consts...)
		prev := node
		est := prev.Est
		est.CPUTuples += prev.Rows
		mk := prev.Make
		node = unaryNode(prev, prev.Ordering, prev.Rows, &plan.Node{
			Kind:   "Select",
			Detail: pred.String(),
			Est:    est,
			Make:   func() exec.Operator { return exec.NewSelect(mk(), pred) },
		})
	}

	switch {
	case b.HasAggregation():
		var err error
		node, err = o.finishGroupBy(ctx, node)
		if err != nil {
			return nil, err
		}
		if b.Having != nil {
			node, err = o.finishHaving(ctx, node)
			if err != nil {
				return nil, err
			}
		}
	case b.Proj != nil:
		var err error
		node, err = o.finishProject(ctx, node)
		if err != nil {
			return nil, err
		}
	default:
		node = o.identityProject(ctx, node)
	}

	if b.Distinct {
		prev := node
		rows := distinctRowsEstimate(prev)
		est := prev.Est
		est.CPUTuples += prev.Rows
		mk := prev.Make
		st := prev.Stats
		if st != nil {
			st = st.Clone()
			st.Rows = rows
		}
		node = unaryNode(prev, prev.Ordering, rows, &plan.Node{
			Kind:  "Distinct",
			Est:   est,
			Stats: st,
			Make:  func() exec.Operator { return exec.NewDistinct(mk()) },
		})
	}

	if len(b.OrderBy) > 0 {
		prev := node
		keys := make([]int, len(b.OrderBy))
		desc := make([]bool, len(b.OrderBy))
		detail := ""
		for i, oi := range b.OrderBy {
			if oi.Col < 0 || oi.Col >= prev.OutSchema.Len() {
				return nil, fmt.Errorf("opt: ORDER BY position %d outside the output (width %d)",
					oi.Col, prev.OutSchema.Len())
			}
			keys[i], desc[i] = oi.Col, oi.Desc
			if i > 0 {
				detail += ", "
			}
			detail += prev.OutSchema.Col(oi.Col).QualifiedName()
			if oi.Desc {
				detail += " DESC"
			}
		}
		mk := prev.Make
		want := orderByWanted(prev, b.OrderBy)
		switch {
		case o.orderAware() && want != nil && prev.Ordering.Satisfies(want):
			// Sort elision: the retained interesting order already delivers
			// the requested sequence. No Sort (or Top-N heap) is built, so
			// neither the estimate nor the execution pays for one; a LIMIT
			// below degenerates to a plain row cap.
		case b.Limit > 0:
			// Sort+Limit fuse into a bounded-heap Top-N.
			n := b.Limit
			rows := prev.Rows
			if float64(n) < rows {
				rows = float64(n)
			}
			est := prev.Est
			est.CPUTuples += prev.Rows + float64(n)*lg2(float64(n)) + rows
			return unaryNode(prev, want, rows, &plan.Node{
				Kind:   "TopN",
				Detail: fmt.Sprintf("%s limit %d", detail, n),
				Est:    est,
				Make:   func() exec.Operator { return exec.NewTopN(mk(), n, keys, desc) },
			}), nil
		default:
			est := prev.Est
			est.CPUTuples += prev.Rows*lg2(prev.Rows) + prev.Rows
			node = unaryNode(prev, want, prev.Rows, &plan.Node{
				Kind:   "Sort",
				Detail: detail,
				Est:    est,
				Make: func() exec.Operator {
					s := exec.NewSort(mk(), keys, desc)
					s.InputHint = int(prev.Rows + 0.5)
					return s
				},
			})
		}
	}

	if b.Limit > 0 {
		prev := node
		rows := prev.Rows
		if float64(b.Limit) < rows {
			rows = float64(b.Limit)
		}
		mk := prev.Make
		n := b.Limit
		node = unaryNode(prev, prev.Ordering, rows, &plan.Node{
			Kind:   "Limit",
			Detail: fmt.Sprintf("%d", n),
			Est:    prev.Est,
			Make:   func() exec.Operator { return exec.NewLimit(mk(), n) },
		})
	}
	return node, nil
}

// finishHaving applies the HAVING predicate, which is bound against the
// aggregation output layout.
func (o *Optimizer) finishHaving(ctx *Ctx, prev *plan.Node) (*plan.Node, error) {
	b := ctx.Block
	cols := map[int]bool{}
	expr.CollectCols(b.Having, cols)
	for c := range cols {
		if c < 0 || c >= prev.OutSchema.Len() {
			return nil, fmt.Errorf("opt: HAVING references output column %d (width %d)",
				c, prev.OutSchema.Len())
		}
	}
	sel := 1.0 / 3.0
	if prev.Stats != nil {
		sel = stats.Selectivity(b.Having, prev.Stats)
	}
	rows := prev.Rows * sel
	est := prev.Est
	est.CPUTuples += prev.Rows
	st := prev.Stats
	if st != nil {
		st = st.Scale(sel)
	}
	mk := prev.Make
	having := b.Having
	return unaryNode(prev, prev.Ordering, rows, &plan.Node{
		Kind:   "Having",
		Detail: having.String(),
		Est:    est,
		Stats:  st,
		Make:   func() exec.Operator { return exec.NewSelect(mk(), having) },
	}), nil
}

func distinctRowsEstimate(n *plan.Node) float64 {
	if n.Stats == nil {
		return n.Rows
	}
	d := make([]float64, len(n.Stats.Cols))
	for i := range d {
		d[i] = n.Stats.DistinctOf(i)
	}
	return stats.ProjectionCardinality(n.Rows, d)
}

func (o *Optimizer) finishGroupBy(ctx *Ctx, prev *plan.Node) (*plan.Node, error) {
	b := ctx.Block
	groupPos := make([]int, len(b.GroupBy))
	for i, g := range b.GroupBy {
		if g < 0 || g >= len(prev.ColMap) || prev.ColMap[g] < 0 {
			return nil, fmt.Errorf("opt: GROUP BY column %d unavailable in join output", g)
		}
		groupPos[i] = prev.ColMap[g]
	}
	aggs := make([]expr.AggSpec, len(b.Aggs))
	for i, a := range b.Aggs {
		if a.Arg != nil && !expr.Mappable(a.Arg, prev.ColMap) {
			return nil, fmt.Errorf("opt: aggregate %s references unavailable columns", a)
		}
		aggs[i] = expr.RemapAgg(a, prev.ColMap)
	}

	// Output cardinality: distinct combinations of the grouping columns.
	rows := prev.Rows
	if len(groupPos) == 0 {
		rows = 1
	} else {
		d := make([]float64, len(b.GroupBy))
		for i, g := range b.GroupBy {
			d[i] = ctx.DistinctOfBlockCol(prev, g)
		}
		rows = stats.ProjectionCardinality(prev.Rows, d)
	}

	// Output stats: grouping columns keep their column stats with
	// distinct = rows; aggregates get distinct = rows.
	outCols := make([]stats.ColStats, 0, len(groupPos)+len(aggs))
	for i, g := range b.GroupBy {
		var cs stats.ColStats
		if prev.Stats != nil && groupPos[i] < len(prev.Stats.Cols) {
			cs = prev.Stats.Cols[groupPos[i]]
		}
		if cs.Distinct > rows || cs.Distinct == 0 {
			cs.Distinct = rows
		}
		_ = g
		outCols = append(outCols, cs)
	}
	for range aggs {
		outCols = append(outCols, stats.ColStats{Distinct: rows})
	}

	est := prev.Est
	est.CPUTuples += prev.Rows + rows

	outSchema, err := b.OutputSchema(ctx, "")
	if err != nil {
		return nil, err
	}
	colMap := plan.EmptyColMap(ctx.Layout.Schema.Len())
	for i, g := range b.GroupBy {
		colMap[g] = i
	}

	mk := prev.Make
	kind := "GroupBy"
	var outOrd plan.Ordering
	hint := int(rows + 0.5) // pre-size the group table from the estimate
	mkOp := func() exec.Operator {
		g := exec.NewGroupBy(mk(), groupPos, aggs)
		g.SizeHint, g.InputHint = hint, int(prev.Rows+0.5)
		return g
	}
	if o.orderAware() && len(groupPos) > 0 && prev.Ordering.PrefixCovers(b.GroupBy) {
		// The join output already arrives clustered by the grouping
		// columns, so aggregation streams one group at a time instead of
		// hashing every row, and the input's order survives on the
		// grouping columns for the ORDER BY above to reuse.
		kind = "StreamGroupBy"
		outOrd = prev.Ordering.Project(func(c int) bool { return colMap[c] >= 0 })
		mkOp = func() exec.Operator { return exec.NewStreamGroupBy(mk(), groupPos, aggs) }
	}
	return unaryNode(prev, outOrd, rows, &plan.Node{
		Kind:      kind,
		Detail:    groupByDetail(ctx, b),
		Est:       est,
		Stats:     &stats.RelStats{Rows: rows, Cols: outCols},
		OutSchema: outSchema,
		ColMap:    colMap,
		Make:      mkOp,
	}), nil
}

func groupByDetail(ctx *Ctx, b *query.Block) string {
	s := ""
	for i, g := range b.GroupBy {
		if i > 0 {
			s += ", "
		}
		s += ctx.Layout.Schema.Col(g).QualifiedName()
	}
	for _, a := range b.Aggs {
		if s != "" {
			s += "; "
		}
		s += a.String()
	}
	return s
}

func (o *Optimizer) finishProject(ctx *Ctx, prev *plan.Node) (*plan.Node, error) {
	b := ctx.Block
	exprs := make([]expr.Expr, len(b.Proj))
	for i, p := range b.Proj {
		if !expr.Mappable(p.Expr, prev.ColMap) {
			return nil, fmt.Errorf("opt: projection %q references unavailable columns", p.Expr.String())
		}
		exprs[i] = expr.Remap(p.Expr, prev.ColMap)
	}
	outSchema, err := b.OutputSchema(ctx, "")
	if err != nil {
		return nil, err
	}
	outCols := make([]stats.ColStats, len(b.Proj))
	colMap := plan.EmptyColMap(ctx.Layout.Schema.Len())
	for i, p := range b.Proj {
		if c, ok := p.Expr.(expr.Col); ok {
			if prev.Stats != nil && prev.ColMap[c.Idx] >= 0 && prev.ColMap[c.Idx] < len(prev.Stats.Cols) {
				outCols[i] = prev.Stats.Cols[prev.ColMap[c.Idx]]
			}
			colMap[c.Idx] = i
		}
		if outCols[i].Distinct == 0 {
			outCols[i].Distinct = prev.Rows
		}
	}
	est := prev.Est
	est.CPUTuples += prev.Rows
	mk := prev.Make
	ord := prev.Ordering.Project(func(c int) bool { return colMap[c] >= 0 })
	return unaryNode(prev, ord, prev.Rows, &plan.Node{
		Kind:      "Project",
		Detail:    projDetail(b),
		Est:       est,
		Stats:     &stats.RelStats{Rows: prev.Rows, Cols: outCols},
		OutSchema: outSchema,
		ColMap:    colMap,
		Make:      func() exec.Operator { return exec.NewProject(mk(), exprs, outSchema) },
	}), nil
}

func projDetail(b *query.Block) string {
	s := ""
	for i, p := range b.Proj {
		if i > 0 {
			s += ", "
		}
		s += p.Expr.String()
	}
	return s
}

// identityProject restores the block's declared column order (SELECT *
// semantics) when the join order permuted it. It is skipped when the
// join output is already in block layout order.
func (o *Optimizer) identityProject(ctx *Ctx, prev *plan.Node) *plan.Node {
	width := ctx.Layout.Schema.Len()
	identity := prev.OutSchema.Len() == width
	if identity {
		for c := 0; c < width; c++ {
			if prev.ColMap[c] != c {
				identity = false
				break
			}
		}
	}
	if identity {
		return prev
	}
	exprs := make([]expr.Expr, width)
	outCols := make([]stats.ColStats, width)
	for c := 0; c < width; c++ {
		pos := prev.ColMap[c]
		exprs[c] = expr.NewCol(pos, ctx.Layout.Schema.Col(c).QualifiedName())
		if prev.Stats != nil && pos >= 0 && pos < len(prev.Stats.Cols) {
			outCols[c] = prev.Stats.Cols[pos]
		}
	}
	est := prev.Est
	est.CPUTuples += prev.Rows
	mk := prev.Make
	outSchema := ctx.Layout.Schema
	return unaryNode(prev, prev.Ordering, prev.Rows, &plan.Node{
		Kind:      "Project",
		Detail:    "*",
		Est:       est,
		Stats:     &stats.RelStats{Rows: prev.Rows, Cols: outCols},
		OutSchema: outSchema,
		ColMap:    plan.IdentityColMap(width),
		Make:      func() exec.Operator { return exec.NewProject(mk(), exprs, outSchema) },
	})
}

// orderByWanted translates the block's ORDER BY — stated over output
// positions — into an Ordering over block layout columns, the coordinate
// space plan orderings are tracked in. A nil result means some ORDER BY
// item has no block-column provenance (an aggregate or computed
// expression), so sort elision is off the table.
func orderByWanted(prev *plan.Node, items []query.OrderItem) plan.Ordering {
	want := make(plan.Ordering, len(items))
	for i, oi := range items {
		var cols []int
		for c, pos := range prev.ColMap {
			if pos == oi.Col {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			return nil
		}
		want[i] = plan.OrderKey{Cols: cols, Desc: oi.Desc}
	}
	return want
}
