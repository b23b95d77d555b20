package opt

import (
	"fmt"
	"math"

	"filterjoin/internal/catalog"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/udr"
)

// lg2 returns ceil(log2(n)) for n>1, else 0, as a float for CPU charges.
func lg2(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(n))
}

// PagesOf returns the page count of `rows` rows of width rowBytes.
func PagesOf(rows float64, rowBytes int) float64 {
	if rows <= 0 {
		return 0
	}
	rpp := storage.PageSize / rowBytes
	if rpp < 1 {
		rpp = 1
	}
	return math.Ceil(rows / float64(rpp))
}

// builtinCandidates produces the standard join-method plans for the
// step. Every built-in method except the merge join streams its outer
// input, so the outer's retained ordering survives as s.Ordering; the
// merge join instead produces the order of its own key sequence.
func (s *JoinStep) builtinCandidates() []*plan.Node {
	o, ri := s.Ctx.O, s.Inner
	var cands []*plan.Node
	add := func(n *plan.Node) {
		if n != nil {
			cands = append(cands, n)
		}
	}
	keyed := len(s.OuterCols) > 0

	if ri.Access != nil {
		if keyed {
			if o.methodEnabled("hash") {
				add(s.hashJoin())
			}
			if o.methodEnabled("merge") {
				add(s.mergeJoin())
			}
		}
		if o.methodEnabled("nlj") {
			add(s.nestedLoopJoin())
		}
	}
	if keyed && ri.Entry.Kind == catalog.KindBase && o.methodEnabled("indexnl") {
		add(s.indexNLJoin())
	}
	if keyed && ri.Entry.Kind == catalog.KindRemote && o.methodEnabled("fetchmatches") {
		add(s.fetchMatches())
	}
	if ri.Entry.Kind == catalog.KindFunc && (o.methodEnabled("funcprobe") || o.methodEnabled("funcprobememo")) {
		cands = append(cands, s.funcProbes()...)
	}
	return cands
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

func (s *JoinStep) hashJoin() *plan.Node {
	outer, a := s.Outer, s.Inner.Access
	outerPos, ok := OuterKeyPositions(outer, s.OuterCols)
	if !ok {
		return nil
	}
	innerPos, ok := OuterKeyPositions(a, s.InnerCols)
	if !ok {
		return nil
	}
	est := outer.Est.Plus(a.Est)
	est.CPUTuples += a.Rows + outer.Rows + s.Rows
	res := ResidualExpr(s.Residual, s.ColMap)
	outerMk, innerMk := outer.Make, a.Make
	hint := int(a.Rows + 0.5) // pre-size the build table from the estimate
	return s.Node(s.Ordering, &plan.Node{
		Kind:     "HashJoin",
		Detail:   keyDetail(s.Ctx, s.OuterCols, s.InnerCols),
		Children: []*plan.Node{outer, a},
		Est:      est,
		Make: func() exec.Operator {
			j := exec.NewHashJoinProbeFirst(innerMk(), outerMk(), innerPos, outerPos, res)
			j.BuildSizeHint = hint
			return j
		},
	})
}

func (s *JoinStep) mergeJoin() *plan.Node {
	outer, a := s.Outer, s.Inner.Access
	// When the outer's retained ordering already covers the merge keys
	// ascending (in some pair permutation), the outer arrives sorted:
	// drop its sort from both the cost formula and the operator tree.
	oc, ic := s.OuterCols, s.InnerCols
	presorted := false
	if s.Ctx.O.orderAware() {
		oc, ic, presorted = reorderPairsForPresorted(outer.Ordering, oc, ic)
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
	est.CPUTuples += a.Rows*lg2(a.Rows) + 2*(outer.Rows+a.Rows) + s.Rows
	if !presorted {
		est.CPUTuples += outer.Rows * lg2(outer.Rows)
	}
	res := ResidualExpr(s.Residual, s.ColMap)
	outerMk, innerMk := outer.Make, a.Make
	detail := keyDetail(s.Ctx, oc, ic)
	if presorted {
		detail += " outer presorted"
	}
	return s.Node(mergeOutputOrdering(oc, ic), &plan.Node{
		Kind:     "MergeJoin",
		Detail:   detail,
		Children: []*plan.Node{outer, a},
		Est:      est,
		Make: func() exec.Operator {
			return exec.NewMergeJoinPresorted(outerMk(), innerMk(), outerPos, innerPos, res, presorted, false)
		},
	})
}

func (s *JoinStep) nestedLoopJoin() *plan.Node {
	outer, a := s.Outer, s.Inner.Access
	pagesA := PagesOf(a.Rows, a.OutSchema.RowWidth())
	est := outer.Est.Plus(a.Est)
	est.PageWrites += pagesA
	est.PageReads += outer.Rows * pagesA
	est.CPUTuples += 2*outer.Rows*a.Rows + s.Rows
	pred := ResidualExpr(s.Preds, s.ColMap)
	outerMk, innerMk := outer.Make, a.Make
	return s.Node(s.Ordering, &plan.Node{
		Kind:     "NestedLoopJoin",
		Detail:   predDetail(pred),
		Children: []*plan.Node{outer, a},
		Est:      est,
		Make: func() exec.Operator {
			return exec.NewNestedLoopJoin(outerMk(), exec.NewMaterialize(innerMk(), "__nlj"), pred)
		},
	})
}

func predDetail(p expr.Expr) string {
	if p == nil {
		return "cross"
	}
	return p.String()
}

// PickIndex selects the index on t covering the largest subset of the
// (relation-local) equi columns; returns nil if none applies.
func PickIndex(t *storage.Table, localCols []int) *storage.HashIndex {
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

// IndexProbe estimates one probe of ix on t under the relation's raw
// statistics: k, the rows matching one key, and the data pages holding
// them. Every index-driven access — IndexNLJoin, FetchMatches, the
// IndexLookup leaf, the Filter Join's index-probe restriction — costs a
// probe with it, so choosing among them compares like with like.
func IndexProbe(raw *stats.RelStats, t *storage.Table, ix *storage.HashIndex) (k, matchPages float64) {
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
	return k, stats.MatchPages(raw.Rows, float64(t.NumPages()), k, t.RowsPerPage(), clustered)
}

// indexJoinShape computes the common pieces of index-driven joins:
// the chosen index, the outer key positions aligned with the index
// columns, expected matches per probe and pages per probe, and the
// residual predicate (everything not covered by the index equality).
func (s *JoinStep) indexJoinShape() (ix *storage.HashIndex, outerPos []int, k, matchPages float64, residual expr.Expr, ok bool) {
	ri := s.Inner
	t := ri.Entry.Table
	local := make([]int, len(s.InnerCols))
	for i, col := range s.InnerCols {
		local[i] = col - ri.Offset
	}
	ix = PickIndex(t, local)
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
				p, okp := OuterKeyPositions(s.Outer, []int{s.OuterCols[j]})
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
	k, matchPages = IndexProbe(ri.RawStats, t, ix)

	// Residual: all applicable preds except the covered equi pairs, plus
	// the relation's local predicate (index fetch bypasses the leaf).
	var rest []*PredInfo
	for _, p := range s.Preds {
		used := false
		if p.EquiL >= 0 {
			for j := range s.InnerCols {
				if covered[j] && (p.EquiL == s.InnerCols[j] || p.EquiR == s.InnerCols[j]) &&
					(p.EquiL == s.OuterCols[j] || p.EquiR == s.OuterCols[j]) {
					used = true
					break
				}
			}
		}
		if !used {
			rest = append(rest, p)
		}
	}
	return ix, outerPos, k, matchPages, s.residualWithLocal(rest), true
}

func (s *JoinStep) indexNLJoin() *plan.Node {
	ix, outerPos, k, matchPages, residual, ok := s.indexJoinShape()
	if !ok {
		return nil
	}
	outer, ri := s.Outer, s.Inner
	est := outer.Est
	est.PageReads += outer.Rows * (1 + matchPages)
	est.CPUTuples += outer.Rows * (k + 1)
	outerMk := outer.Make
	t, alias := ri.Entry.Table, ri.Ref.Binding()
	return s.Node(s.Ordering, &plan.Node{
		Kind:     "IndexNLJoin",
		Detail:   fmt.Sprintf("%s via %s", keyDetail(s.Ctx, s.OuterCols, s.InnerCols), ix.Name()),
		Children: []*plan.Node{outer},
		Est:      est,
		Make: func() exec.Operator {
			return exec.NewIndexNLJoin(outerMk(), t, ix, outerPos, residual, alias)
		},
	})
}

func (s *JoinStep) fetchMatches() *plan.Node {
	ix, outerPos, k, matchPages, residual, ok := s.indexJoinShape()
	if !ok {
		return nil
	}
	outer, ri := s.Outer, s.Inner
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
	return s.Node(s.Ordering, &plan.Node{
		Kind:     "FetchMatches",
		Detail:   fmt.Sprintf("%s @site%d", keyDetail(s.Ctx, s.OuterCols, s.InnerCols), site),
		Children: []*plan.Node{outer},
		Est:      est,
		Make: func() exec.Operator {
			return dist.NewFetchMatchesJoin(outerMk(), t, ix, outerPos, residual, alias, site)
		},
	})
}

// FuncPerCall estimates the rows one invocation of a function-backed
// relation returns: the declared average, or — when statistics describe
// the relation — its rows spread over the distinct argument bindings.
func FuncPerCall(e *catalog.Entry, raw *stats.RelStats) float64 {
	perCall := e.FnPerCall
	if perCall <= 0 {
		perCall = 1
	}
	if raw != nil && raw.Rows > 0 {
		distincts := make([]float64, len(e.ArgCols))
		for i, a := range e.ArgCols {
			distincts[i] = raw.DistinctOf(a)
		}
		dom := stats.ProjectionCardinality(raw.Rows, distincts)
		if dom >= 1 {
			perCall = raw.Rows / dom
		}
	}
	return perCall
}

func (s *JoinStep) funcProbes() []*plan.Node {
	outer, ri := s.Outer, s.Inner
	o, e := s.Ctx.O, ri.Entry
	// Every argument column must be bound by an equi predicate from the
	// outer; otherwise the function cannot be invoked at this position.
	argOuter := make([]int, len(e.ArgCols))
	used := map[int]bool{}
	for i, a := range e.ArgCols {
		want := ri.Offset + a
		found := false
		for j, ic := range s.InnerCols {
			if ic == want {
				argOuter[i] = s.OuterCols[j]
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	argPos, ok := OuterKeyPositions(outer, argOuter)
	if !ok {
		return nil
	}
	// Residual: unused equi preds + non-equi preds + local predicates.
	var rest []*PredInfo
	for _, p := range s.Preds {
		isBinding := false
		if p.EquiL >= 0 {
			for j := range s.InnerCols {
				if used[j] && (p.EquiL == s.InnerCols[j] || p.EquiR == s.InnerCols[j]) {
					isBinding = true
					break
				}
			}
		}
		if !isBinding {
			rest = append(rest, p)
		}
	}
	residual := s.residualWithLocal(rest)
	perCall := FuncPerCall(e, ri.RawStats)
	outerMk := outer.Make
	alias := ri.Ref.Binding()

	var nodes []*plan.Node
	// Plain repeated invocation.
	if o.methodEnabled("funcprobe") {
		est := outer.Est
		est.FnCalls += outer.Rows
		est.CPUTuples += outer.Rows*(perCall+1) + s.Rows
		nodes = append(nodes, s.Node(s.Ordering, &plan.Node{
			Kind:     "FuncProbe",
			Detail:   fmt.Sprintf("%s(%d args)", e.Name, len(e.ArgCols)),
			Children: []*plan.Node{outer},
			Est:      est,
			Make: func() exec.Operator {
				return udr.NewProbeJoin(outerMk(), e, argPos, residual, false, alias)
			},
		}))
	}
	// Memoized invocation: one call per distinct binding.
	if o.methodEnabled("funcprobememo") {
		dcols := make([]float64, len(argOuter))
		for i, col := range argOuter {
			dcols[i] = s.Ctx.DistinctOfBlockCol(outer, col)
		}
		d := stats.ProjectionCardinality(outer.Rows, dcols)
		est := outer.Est
		est.FnCalls += d
		est.CPUTuples += outer.Rows + d*perCall + outer.Rows*perCall + s.Rows
		nodes = append(nodes, s.Node(s.Ordering, &plan.Node{
			Kind:     "FuncProbeMemo",
			Detail:   fmt.Sprintf("%s(%d args), ~%.0f distinct", e.Name, len(e.ArgCols), d),
			Children: []*plan.Node{outer},
			Est:      est,
			Make: func() exec.Operator {
				return udr.NewProbeJoin(outerMk(), e, argPos, residual, true, alias)
			},
		}))
	}
	return nodes
}
