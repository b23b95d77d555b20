package opt

import (
	"fmt"
	"math"
	"slices"

	"filterjoin/internal/catalog"
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

// offerBuiltins offers the standard join methods' candidates for the
// step, in a fixed order. Every built-in method except the merge join
// streams its outer input, so the outer's retained ordering survives as
// s.Ordering; the merge join instead produces the order of its own key
// sequence.
func (s *JoinStep) offerBuiltins() {
	o, ri := s.Ctx.O, s.Inner
	keyed := len(s.OuterCols) > 0

	if ri.Access != nil {
		if keyed {
			if o.methodEnabled("hash") {
				s.hashJoin()
			}
			if o.methodEnabled("merge") {
				s.mergeJoin()
			}
		}
		if o.methodEnabled("nlj") {
			s.nestedLoopJoin()
		}
	}
	if keyed && (ri.Entry.Kind == catalog.KindBase && o.methodEnabled("indexnl") ||
		ri.Entry.Kind == catalog.KindRemote && o.methodEnabled("fetchmatches")) {
		s.indexNLJoin()
	}
	if ri.Entry.Kind == catalog.KindFunc && (o.methodEnabled("funcprobe") || o.methodEnabled("funcprobememo")) {
		s.funcProbes()
	}
}

func (s *JoinStep) hashJoin() {
	outer, a := s.Outer, s.Inner.Access
	if !Covers(outer, s.OuterCols) || !Covers(a, s.InnerCols) {
		return
	}
	est := outer.Est.Plus(a.Est)
	est.CPUTuples += a.Rows + outer.Rows + s.Rows
	if !s.Admit(est, s.Ordering) {
		return
	}
	outerPos, _ := OuterKeyPositions(outer, s.OuterCols)
	innerPos, _ := OuterKeyPositions(a, s.InnerCols)
	res := ResidualExpr(s.Residual, s.ColMap())
	outerMk, innerMk := outer.Make, a.Make
	hint := int(a.Rows + 0.5) // pre-size the build table from the estimate
	s.Keep(&plan.Node{
		Kind:     "HashJoin",
		Detail:   s.keys(),
		Children: []*plan.Node{outer, a},
		Make: func() exec.Operator {
			j := exec.NewHashJoinProbeFirst(innerMk(), outerMk(), innerPos, outerPos, res)
			j.BuildSizeHint = hint
			return j
		},
	})
}

func (s *JoinStep) mergeJoin() {
	outer, a := s.Outer, s.Inner.Access
	// When the outer's retained ordering already covers the merge keys
	// ascending (in some pair permutation), the outer arrives sorted:
	// drop its sort from both the cost formula and the operator tree.
	oc, ic := s.OuterCols, s.InnerCols
	presorted := false
	if s.Ctx.O.orderAware() {
		oc, ic, presorted = reorderPairsForPresorted(outer.Ordering, oc, ic)
	}
	if !Covers(outer, oc) || !Covers(a, ic) {
		return
	}
	est := outer.Est.Plus(a.Est)
	est.CPUTuples += a.Rows*lg2(a.Rows) + 2*(outer.Rows+a.Rows) + s.Rows
	if !presorted {
		est.CPUTuples += outer.Rows * lg2(outer.Rows)
	}
	if !s.Admit(est, mergeOutputOrdering(oc, ic)) {
		return
	}
	outerPos, _ := OuterKeyPositions(outer, oc)
	innerPos, _ := OuterKeyPositions(a, ic)
	res := ResidualExpr(s.Residual, s.ColMap())
	outerMk, innerMk := outer.Make, a.Make
	detail := s.keys()
	if presorted {
		detail = s.Ctx.keyDetail(oc, ic) + " outer presorted"
	}
	s.Keep(&plan.Node{
		Kind:     "MergeJoin",
		Detail:   detail,
		Children: []*plan.Node{outer, a},
		Make: func() exec.Operator {
			return exec.NewMergeJoinPresorted(outerMk(), innerMk(), outerPos, innerPos, res, presorted, false)
		},
	})
}

func (s *JoinStep) nestedLoopJoin() {
	outer, a := s.Outer, s.Inner.Access
	pagesA := PagesOf(a.Rows, a.OutSchema.RowWidth())
	est := outer.Est.Plus(a.Est)
	est.PageWrites += pagesA
	est.PageReads += outer.Rows * pagesA
	est.CPUTuples += 2*outer.Rows*a.Rows + s.Rows
	if !s.Admit(est, s.Ordering) {
		return
	}
	pred := ResidualExpr(s.Preds, s.ColMap())
	outerMk, innerMk := outer.Make, a.Make
	s.Keep(&plan.Node{
		Kind:     "NestedLoopJoin",
		Detail:   predDetail(pred),
		Children: []*plan.Node{outer, a},
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
	for _, ix := range t.Indexes() {
		ok := true
		for _, c := range ix.Cols() {
			if !slices.Contains(localCols, c) {
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

// indexProbe prices the probe of an index-driven join: the inner's
// index covering the most equi columns (PickIndex), with expected
// matches and pages per probe. ok is false when no index applies or the
// outer lacks a key the index needs.
func (s *JoinStep) indexProbe() (ix *storage.HashIndex, k, matchPages float64, ok bool) {
	ri := s.Inner
	t := ri.Entry.Table
	local := make([]int, len(s.InnerCols))
	for i, col := range s.InnerCols {
		local[i] = col - ri.Offset
	}
	ix = PickIndex(t, local)
	if ix == nil {
		return nil, 0, 0, false
	}
	for _, ic := range ix.Cols() {
		j := s.innerKey(ic)
		if j < 0 || !Covers(s.Outer, s.OuterCols[j:j+1]) {
			return nil, 0, 0, false
		}
	}
	k, matchPages = IndexProbe(ri.RawStats, t, ix)
	return ix, k, matchPages, true
}

// innerKey returns the first key pair whose inner column is the inner
// relation's local column col, or -1.
func (s *JoinStep) innerKey(col int) int {
	for j, ic := range s.InnerCols {
		if ic-s.Inner.Offset == col {
			return j
		}
	}
	return -1
}

// indexJoinBuild completes an admitted index-driven join on ix: the
// outer key positions aligned with ix.Cols() and the residual — every
// applicable predicate but the equi pairs the index covers, plus the
// relation's local predicate (an index fetch bypasses the leaf).
func (s *JoinStep) indexJoinBuild(ix *storage.HashIndex) (outerPos []int, residual expr.Expr) {
	outerPos = make([]int, len(ix.Cols()))
	covered := make([]bool, len(s.InnerCols))
	for i, ic := range ix.Cols() {
		j := s.innerKey(ic)
		outerPos[i] = s.Outer.ColMap[s.OuterCols[j]]
		covered[j] = true
	}
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
	return outerPos, s.residualWithLocal(rest)
}

// indexNLJoin is the repeated probe against a stored inner: an index
// nested-loops join, or — when the inner lives at a remote site — the
// System R* fetch-matches join, which adds one key message per probe and
// ships every match back.
func (s *JoinStep) indexNLJoin() {
	ix, k, matchPages, ok := s.indexProbe()
	if !ok {
		return
	}
	outer, ri := s.Outer, s.Inner
	t, alias, site := ri.Entry.Table, ri.Ref.Binding(), ri.Entry.Site
	est := outer.Est
	if site > 0 {
		keyBytes := 0
		for _, col := range ix.Cols() {
			keyBytes += t.Schema().Col(col).Type.Width()
		}
		est.NetMsgs += outer.Rows
		est.NetBytes += outer.Rows * (float64(keyBytes) + k*float64(t.Schema().RowWidth()))
	}
	est.PageReads += outer.Rows * (1 + matchPages)
	est.CPUTuples += outer.Rows * (k + 1)
	if !s.Admit(est, s.Ordering) {
		return
	}
	kind, detail := "FetchMatches", ""
	if site > 0 {
		detail = fmt.Sprintf("%s @site%d", s.keys(), site)
	} else {
		kind, detail = "IndexNLJoin", s.keys()+" via "+ix.Name()
	}
	outerPos, residual := s.indexJoinBuild(ix)
	outerMk := outer.Make
	s.Keep(&plan.Node{
		Kind:     kind,
		Detail:   detail,
		Children: []*plan.Node{outer},
		Make: func() exec.Operator {
			return exec.NewIndexNLJoin(outerMk(), t, ix, outerPos, residual, alias, site)
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

func (s *JoinStep) funcProbes() {
	outer, ri := s.Outer, s.Inner
	o, e := s.Ctx.O, ri.Entry
	// Every argument column must be bound by an equi predicate from the
	// outer; otherwise the function cannot be invoked at this position.
	argOuter := make([]int, len(e.ArgCols))
	used := make([]bool, len(s.InnerCols))
	for i, a := range e.ArgCols {
		j := s.innerKey(a)
		if j < 0 {
			return
		}
		argOuter[i] = s.OuterCols[j]
		used[j] = true
	}
	if !Covers(outer, argOuter) {
		return
	}
	perCall := FuncPerCall(e, ri.RawStats)

	// Plain repeated invocation.
	if o.methodEnabled("funcprobe") {
		est := outer.Est
		est.FnCalls += outer.Rows
		est.CPUTuples += outer.Rows*(perCall+1) + s.Rows
		if s.Admit(est, s.Ordering) {
			s.Keep(s.funcProbeNode("FuncProbe", fmt.Sprintf("%s(%d args)", e.Name, len(e.ArgCols)), argOuter, used, false))
		}
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
		if s.Admit(est, s.Ordering) {
			s.Keep(s.funcProbeNode("FuncProbeMemo", fmt.Sprintf("%s(%d args), ~%.0f distinct", e.Name, len(e.ArgCols), d), argOuter, used, true))
		}
	}
}

// funcProbeNode builds an admitted function probe: the outer's argument
// columns feed each call, and the residual is every applicable predicate
// but the used argument bindings, plus the relation's local predicate.
func (s *JoinStep) funcProbeNode(kind, detail string, argOuter []int, used []bool, memo bool) *plan.Node {
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
	argPos, _ := OuterKeyPositions(s.Outer, argOuter)
	outerMk, e, alias := s.Outer.Make, s.Inner.Entry, s.Inner.Ref.Binding()
	return &plan.Node{
		Kind:     kind,
		Detail:   detail,
		Children: []*plan.Node{s.Outer},
		Make: func() exec.Operator {
			return udr.NewProbeJoin(outerMk(), e, argPos, residual, memo, alias)
		},
	}
}
