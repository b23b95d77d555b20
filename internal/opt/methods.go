package opt

import (
	"fmt"
	"math"

	"filterjoin/internal/catalog"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/udr"
)

// queryRelSet shortens method signatures in this file.
type queryRelSet = query.RelSet

// lg2 returns ceil(log2(n)) for n>1, else 0, as a float for CPU charges.
func lg2(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(n))
}

// pagesOf returns the page count of `rows` rows of width rowBytes.
func pagesOf(rows float64, rowBytes int) float64 {
	if rows <= 0 {
		return 0
	}
	rpp := storage.PageSize / rowBytes
	if rpp < 1 {
		rpp = 1
	}
	return math.Ceil(rows / float64(rpp))
}

// builtinCandidates produces the standard join-method plans for joining
// outer with the inner relation.
func (c *Ctx) builtinCandidates(outer *plan.Node, inner int) ([]*plan.Node, error) {
	ri := c.Rels[inner]
	preds := c.ApplicablePreds(outer.Rels, inner)
	outerCols, innerCols, residual := c.EquiSplit(preds, outer.Rels, inner)
	rows, outStats := c.JoinResult(outer, inner, preds)
	combined := c.CombinedColMap(outer, inner)
	rels := outer.Rels.With(inner)

	// Order propagation: every built-in method except the merge join
	// streams its outer input, so the outer's retained ordering survives,
	// widened by the columns the new equi predicates equate to its keys.
	// The merge join instead produces the order of its own key sequence
	// (see mergeJoinCand).
	ext := outer.Ordering.ExtendEquiv(outerCols, innerCols)

	var cands []*plan.Node
	add := func(n *plan.Node) {
		if n != nil {
			cands = append(cands, n)
		}
	}

	if ri.Access != nil {
		if len(outerCols) > 0 {
			if c.O.methodEnabled("hash") {
				add(c.hashJoinCand(outer, ri, outerCols, innerCols, residual, rows, outStats, combined, rels, ext))
			}
			if c.O.methodEnabled("merge") {
				if n := c.mergeJoinCand(outer, ri, outerCols, innerCols, residual, rows, outStats, combined, rels); n != nil {
					cands = append(cands, n)
				}
			}
		}
		if c.O.methodEnabled("nlj") {
			add(c.nljCand(outer, ri, preds, rows, outStats, combined, rels, ext))
		}
	}
	if len(outerCols) > 0 && ri.Entry.Kind == catalog.KindBase && c.O.methodEnabled("indexnl") {
		add(c.indexNLCand(outer, ri, preds, outerCols, innerCols, rows, outStats, combined, rels, ext))
	}
	if len(outerCols) > 0 && ri.Entry.Kind == catalog.KindRemote && c.O.methodEnabled("fetchmatches") {
		add(c.fetchMatchesCand(outer, ri, preds, outerCols, innerCols, rows, outStats, combined, rels, ext))
	}
	if ri.Entry.Kind == catalog.KindFunc && (c.O.methodEnabled("funcprobe") || c.O.methodEnabled("funcprobememo")) {
		ns, err := c.funcProbeCands(outer, ri, preds, outerCols, innerCols, rows, outStats, combined, rels, ext)
		if err != nil {
			return nil, err
		}
		for _, n := range ns {
			add(n)
		}
	}
	return cands, nil
}

func keyDetail(c *Ctx, outerCols, innerCols []int) string {
	s := ""
	for i := range outerCols {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%s",
			c.Layout.Schema.Col(outerCols[i]).QualifiedName(),
			c.Layout.Schema.Col(innerCols[i]).QualifiedName())
	}
	return s
}

func (c *Ctx) hashJoinCand(outer *plan.Node, ri *RelInfo, outerCols, innerCols []int, residual []*PredInfo, rows float64, outStats *stats.RelStats, combined []int, rels queryRelSet, ord plan.Ordering) *plan.Node {
	a := ri.Access
	outerPos, ok := OuterKeyPositions(outer, outerCols)
	if !ok {
		return nil
	}
	innerPos, ok := OuterKeyPositions(a, innerCols)
	if !ok {
		return nil
	}
	est := outer.Est.Plus(a.Est)
	est.CPUTuples += a.Rows + outer.Rows + rows
	res := ResidualExpr(residual, combined)
	outerMk, innerMk := outer.Make, a.Make
	hint := int(a.Rows + 0.5) // pre-size the build table from the estimate
	return plan.NewNode(&plan.Node{
		Kind:      "HashJoin",
		Detail:    keyDetail(c, outerCols, innerCols),
		Children:  []*plan.Node{outer, a},
		Est:       est,
		Rows:      rows,
		Stats:     outStats,
		OutSchema: outer.OutSchema.Concat(a.OutSchema),
		ColMap:    combined,
		Rels:      rels,
		Ordering:  ord,
		Make: func() exec.Operator {
			j := exec.NewHashJoinProbeFirst(innerMk(), outerMk(), innerPos, outerPos, res)
			j.BuildSizeHint = hint
			return j
		},
	})
}

func (c *Ctx) mergeJoinCand(outer *plan.Node, ri *RelInfo, outerCols, innerCols []int, residual []*PredInfo, rows float64, outStats *stats.RelStats, combined []int, rels queryRelSet) *plan.Node {
	a := ri.Access
	// When the outer's retained ordering already covers the merge keys
	// ascending (in some pair permutation), the outer arrives sorted:
	// drop its sort from both the cost formula and the operator tree.
	oc, ic := outerCols, innerCols
	presorted := false
	if c.O.orderAware() {
		oc, ic, presorted = reorderPairsForPresorted(outer.Ordering, outerCols, innerCols)
	}
	outerPos, ok := OuterKeyPositions(outer, oc)
	if !ok {
		return nil
	}
	innerPos, ok := OuterKeyPositions(a, ic)
	if !ok {
		return nil
	}
	est := outer.Est.Plus(a.Est)
	est.CPUTuples += a.Rows*lg2(a.Rows) + 2*(outer.Rows+a.Rows) + rows
	if !presorted {
		est.CPUTuples += outer.Rows * lg2(outer.Rows)
	}
	res := ResidualExpr(residual, combined)
	outerMk, innerMk := outer.Make, a.Make
	detail := keyDetail(c, oc, ic)
	if presorted {
		detail += " outer presorted"
	}
	pre := presorted
	return plan.NewNode(&plan.Node{
		Kind:      "MergeJoin",
		Detail:    detail,
		Children:  []*plan.Node{outer, a},
		Est:       est,
		Rows:      rows,
		Stats:     outStats,
		OutSchema: outer.OutSchema.Concat(a.OutSchema),
		ColMap:    combined,
		Rels:      rels,
		Ordering:  mergeOutputOrdering(oc, ic),
		Make: func() exec.Operator {
			return exec.NewMergeJoinPresorted(outerMk(), innerMk(), outerPos, innerPos, res, pre, false)
		},
	})
}

func (c *Ctx) nljCand(outer *plan.Node, ri *RelInfo, preds []*PredInfo, rows float64, outStats *stats.RelStats, combined []int, rels queryRelSet, ord plan.Ordering) *plan.Node {
	a := ri.Access
	pagesA := pagesOf(a.Rows, a.OutSchema.RowWidth())
	est := outer.Est.Plus(a.Est)
	est.PageWrites += pagesA
	est.PageReads += outer.Rows * pagesA
	est.CPUTuples += 2*outer.Rows*a.Rows + rows
	pred := ResidualExpr(preds, combined)
	outerMk, innerMk := outer.Make, a.Make
	name := c.O.TempName("nlj")
	return plan.NewNode(&plan.Node{
		Kind:      "NestedLoopJoin",
		Detail:    predDetail(pred),
		Children:  []*plan.Node{outer, a},
		Est:       est,
		Rows:      rows,
		Stats:     outStats,
		OutSchema: outer.OutSchema.Concat(a.OutSchema),
		ColMap:    combined,
		Rels:      rels,
		Ordering:  ord,
		Make: func() exec.Operator {
			return exec.NewNestedLoopJoin(outerMk(), exec.NewMaterialize(innerMk(), name), pred)
		},
	})
}

func predDetail(p expr.Expr) string {
	if p == nil {
		return "cross"
	}
	return p.String()
}

// pickIndex selects the index on t covering the largest subset of the
// (relation-local) equi columns; returns nil if none applies.
func pickIndex(t *storage.Table, localCols []int) *storage.HashIndex {
	var best *storage.HashIndex
	have := map[int]bool{}
	for _, c := range localCols {
		have[c] = true
	}
	for _, ix := range t.Indexes() {
		ok := true
		for _, c := range ix.Cols() {
			if !have[c] {
				ok = false
				break
			}
		}
		if ok && (best == nil || len(ix.Cols()) > len(best.Cols())) {
			best = ix
		}
	}
	return best
}

// indexJoinShape computes the common pieces of index-driven joins:
// the chosen index, the outer key positions aligned with the index
// columns, expected matches per probe and pages per probe, and the
// residual predicate (everything not covered by the index equality).
func (c *Ctx) indexJoinShape(outer *plan.Node, ri *RelInfo, preds []*PredInfo, outerCols, innerCols []int, combined []int) (ix *storage.HashIndex, outerPos []int, k, matchPages float64, residual expr.Expr, ok bool) {
	t := ri.Entry.Table
	local := make([]int, len(innerCols))
	for i, col := range innerCols {
		local[i] = col - ri.Offset
	}
	ix = pickIndex(t, local)
	if ix == nil {
		return nil, nil, 0, 0, nil, false
	}
	// Outer key positions aligned with ix.Cols() order.
	outerPos = make([]int, len(ix.Cols()))
	covered := map[int]bool{}
	for i, ic := range ix.Cols() {
		found := false
		for j, lc := range local {
			if lc == ic {
				p, okp := OuterKeyPositions(outer, []int{outerCols[j]})
				if !okp {
					return nil, nil, 0, 0, nil, false
				}
				outerPos[i] = p[0]
				covered[j] = true
				found = true
				break
			}
		}
		if !found {
			return nil, nil, 0, 0, nil, false
		}
	}
	raw := ri.RawStats
	distincts := make([]float64, len(ix.Cols()))
	for i, ic := range ix.Cols() {
		distincts[i] = raw.DistinctOf(ic)
	}
	keyCard := stats.ProjectionCardinality(raw.Rows, distincts)
	if keyCard < 1 {
		keyCard = 1
	}
	k = raw.Rows / keyCard
	clustered := len(ix.Cols()) > 0 && raw.ClusteredOn(ix.Cols()[0])
	matchPages = stats.MatchPages(raw.Rows, float64(t.NumPages()), k, t.RowsPerPage(), clustered)

	// Residual: all applicable preds except the covered equi pairs, plus
	// the relation's local predicate (index fetch bypasses the leaf).
	var rest []*PredInfo
	for _, p := range preds {
		used := false
		if p.EquiL >= 0 {
			for j := range innerCols {
				if covered[j] && (p.EquiL == innerCols[j] || p.EquiR == innerCols[j]) &&
					(p.EquiL == outerCols[j] || p.EquiR == outerCols[j]) {
					used = true
					break
				}
			}
		}
		if !used {
			rest = append(rest, p)
		}
	}
	residual = ResidualExpr(rest, combined)
	if ri.LocalPred != nil {
		lp := expr.Remap(ri.LocalPred, combined)
		if residual == nil {
			residual = lp
		} else {
			residual = expr.NewAnd(residual, lp)
		}
	}
	return ix, outerPos, k, matchPages, residual, true
}

func (c *Ctx) indexNLCand(outer *plan.Node, ri *RelInfo, preds []*PredInfo, outerCols, innerCols []int, rows float64, outStats *stats.RelStats, combined []int, rels queryRelSet, ord plan.Ordering) *plan.Node {
	ix, outerPos, k, matchPages, residual, ok := c.indexJoinShape(outer, ri, preds, outerCols, innerCols, combined)
	if !ok {
		return nil
	}
	est := outer.Est
	est.PageReads += outer.Rows * (1 + matchPages)
	est.CPUTuples += outer.Rows * (k + 1)
	outerMk := outer.Make
	t, alias := ri.Entry.Table, ri.Ref.Binding()
	return plan.NewNode(&plan.Node{
		Kind:      "IndexNLJoin",
		Detail:    fmt.Sprintf("%s via %s", keyDetail(c, outerCols, innerCols), ix.Name()),
		Children:  []*plan.Node{outer},
		Est:       est,
		Rows:      rows,
		Stats:     outStats,
		OutSchema: outer.OutSchema.Concat(ri.Schema),
		ColMap:    combined,
		Rels:      rels,
		Ordering:  ord,
		Make: func() exec.Operator {
			return exec.NewIndexNLJoin(outerMk(), t, ix, outerPos, residual, alias)
		},
	})
}

func (c *Ctx) fetchMatchesCand(outer *plan.Node, ri *RelInfo, preds []*PredInfo, outerCols, innerCols []int, rows float64, outStats *stats.RelStats, combined []int, rels queryRelSet, ord plan.Ordering) *plan.Node {
	ix, outerPos, k, matchPages, residual, ok := c.indexJoinShape(outer, ri, preds, outerCols, innerCols, combined)
	if !ok {
		return nil
	}
	t := ri.Entry.Table
	keyBytes := 0
	for _, col := range ix.Cols() {
		keyBytes += t.Schema().Col(col).Type.Width()
	}
	rowBytes := t.Schema().RowWidth()
	est := outer.Est
	est.NetMsgs += outer.Rows
	est.NetBytes += outer.Rows * (float64(keyBytes) + k*float64(rowBytes))
	est.PageReads += outer.Rows * (1 + matchPages)
	est.CPUTuples += outer.Rows * (k + 1)
	outerMk := outer.Make
	alias := ri.Ref.Binding()
	site := ri.Entry.Site
	return plan.NewNode(&plan.Node{
		Kind:      "FetchMatches",
		Detail:    fmt.Sprintf("%s @site%d", keyDetail(c, outerCols, innerCols), ri.Entry.Site),
		Children:  []*plan.Node{outer},
		Est:       est,
		Rows:      rows,
		Stats:     outStats,
		OutSchema: outer.OutSchema.Concat(ri.Schema),
		ColMap:    combined,
		Rels:      rels,
		Ordering:  ord,
		Make: func() exec.Operator {
			return dist.NewFetchMatchesJoin(outerMk(), t, ix, outerPos, residual, alias, site)
		},
	})
}

func (c *Ctx) funcProbeCands(outer *plan.Node, ri *RelInfo, preds []*PredInfo, outerCols, innerCols []int, rows float64, outStats *stats.RelStats, combined []int, rels queryRelSet, ord plan.Ordering) ([]*plan.Node, error) {
	e := ri.Entry
	// Every argument column must be bound by an equi predicate from the
	// outer; otherwise the function cannot be invoked at this position.
	argOuter := make([]int, len(e.ArgCols))
	used := map[int]bool{}
	for i, a := range e.ArgCols {
		want := ri.Offset + a
		found := false
		for j, ic := range innerCols {
			if ic == want {
				argOuter[i] = outerCols[j]
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return nil, nil
		}
	}
	argPos, ok := OuterKeyPositions(outer, argOuter)
	if !ok {
		return nil, nil
	}
	// Residual: unused equi preds + non-equi preds + local predicates.
	var rest []*PredInfo
	for _, p := range preds {
		isBinding := false
		if p.EquiL >= 0 {
			for j := range innerCols {
				if used[j] && (p.EquiL == innerCols[j] || p.EquiR == innerCols[j]) {
					isBinding = true
					break
				}
			}
		}
		if !isBinding {
			rest = append(rest, p)
		}
	}
	residual := ResidualExpr(rest, combined)
	if ri.LocalPred != nil {
		lp := expr.Remap(ri.LocalPred, combined)
		if residual == nil {
			residual = lp
		} else {
			residual = expr.NewAnd(residual, lp)
		}
	}
	perCall := e.FnPerCall
	if perCall <= 0 {
		perCall = 1
	}
	if ri.RawStats != nil && ri.RawStats.Rows > 0 {
		distincts := make([]float64, len(e.ArgCols))
		for i, a := range e.ArgCols {
			distincts[i] = ri.RawStats.DistinctOf(a)
		}
		dom := stats.ProjectionCardinality(ri.RawStats.Rows, distincts)
		if dom >= 1 {
			perCall = ri.RawStats.Rows / dom
		}
	}
	outerMk := outer.Make
	alias := ri.Ref.Binding()
	outSchema := outer.OutSchema.Concat(ri.Schema)

	var nodes []*plan.Node
	// Plain repeated invocation.
	est := outer.Est
	est.FnCalls += outer.Rows
	est.CPUTuples += outer.Rows*(perCall+1) + rows
	if c.O.methodEnabled("funcprobe") {
		nodes = append(nodes, plan.NewNode(&plan.Node{
			Kind:      "FuncProbe",
			Detail:    fmt.Sprintf("%s(%d args)", e.Name, len(e.ArgCols)),
			Children:  []*plan.Node{outer},
			Est:       est,
			Rows:      rows,
			Stats:     outStats,
			OutSchema: outSchema,
			ColMap:    combined,
			Rels:      rels,
			Ordering:  ord,
			Make: func() exec.Operator {
				return udr.NewProbeJoin(outerMk(), e, argPos, residual, false, alias)
			},
		}))
	}
	// Memoized invocation: one call per distinct binding.
	if c.O.methodEnabled("funcprobememo") {
		dcols := make([]float64, len(argOuter))
		for i, col := range argOuter {
			dcols[i] = c.DistinctOfBlockCol(outer, col)
		}
		d := stats.ProjectionCardinality(outer.Rows, dcols)
		estM := outer.Est
		estM.FnCalls += d
		estM.CPUTuples += outer.Rows + d*perCall + outer.Rows*perCall + rows
		nodes = append(nodes, plan.NewNode(&plan.Node{
			Kind:      "FuncProbeMemo",
			Detail:    fmt.Sprintf("%s(%d args), ~%.0f distinct", e.Name, len(e.ArgCols), d),
			Children:  []*plan.Node{outer},
			Est:       estM,
			Rows:      rows,
			Stats:     outStats,
			OutSchema: outSchema,
			ColMap:    combined,
			Rels:      rels,
			Ordering:  ord,
			Make: func() exec.Operator {
				return udr.NewProbeJoin(outerMk(), e, argPos, residual, true, alias)
			},
		}))
	}
	return nodes, nil
}
