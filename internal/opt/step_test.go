package opt

import (
	"slices"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/sqlref"
)

// fakeJoin is a JoinMethod that knows nothing but the step: it offers
// one candidate per call, a hash join priced at a fixed estimate.
// It records a copy of each step it is offered, taken when Offer
// returns: the DP reuses one step, so a method may not keep a pointer.
type fakeJoin struct {
	est   cost.Estimate
	steps []JoinStep
	built int
}

func (f *fakeJoin) Name() string { return "fake" }

func (f *fakeJoin) Offer(s *JoinStep) error {
	defer func() { f.steps = append(f.steps, *s) }()
	if !s.Admit(f.est, s.Ordering) {
		return nil
	}
	f.built++
	outerPos, _ := OuterKeyPositions(s.Outer, s.OuterCols)
	innerPos, _ := OuterKeyPositions(s.Inner.Access, s.InnerCols)
	outerMk, innerMk := s.Outer.Make, s.Inner.Access.Make
	s.Keep(&plan.Node{
		Kind:     "FakeJoin",
		Children: []*plan.Node{s.Outer},
		Make: func() exec.Operator {
			return exec.NewHashJoinProbeFirst(innerMk(), outerMk(), innerPos, outerPos, nil)
		},
	})
	return nil
}

// TestRegisteredMethodSeesEveryStep pins the JoinMethod seam without
// the Filter Join: a registered method is offered each DP extension
// exactly once, with the step the built-in methods were costed from;
// its candidate is counted, traced, shaped by step.Keep, and chosen
// when it is the cheapest.
func TestRegisteredMethodSeesEveryStep(t *testing.T) {
	o, ref := only(t, "hash"), only(t, "hash")
	fake := &fakeJoin{}
	o.Register(fake)
	tr := &CollectingTracer{}
	o.Tracer = tr
	p, want := mustOptimize(t, o), mustOptimize(t, ref)

	// A⋈B extends {A} with B and {B} with A: two steps, one offer each.
	if len(fake.steps) != 2 {
		t.Fatalf("method offered %d steps, want 2", len(fake.steps))
	}
	if got, n := o.Metrics.PlansConsidered, ref.Metrics.PlansConsidered+2; got != n {
		t.Errorf("PlansConsidered = %d, want %d (one per offer)", got, n)
	}
	traced := 0
	for _, ev := range tr.Events {
		if ev.Kind == EvCandidate && ev.Method == "FakeJoin" {
			traced++
		}
	}
	if traced != 2 {
		t.Errorf("traced %d FakeJoin candidates, want 2", traced)
	}

	// A zero-cost candidate beats every built-in one.
	fj := p.Find("FakeJoin")
	if fj == nil {
		t.Fatalf("cheapest candidate not chosen:\n%s", plan.Format(p, o.Model))
	}
	var s *JoinStep
	for i := range fake.steps {
		if fake.steps[i].Outer == fj.Children[0] {
			s = &fake.steps[i]
		}
	}
	if s == nil {
		t.Fatal("chosen candidate's outer matches no offered step")
	}
	if fj.Rows != s.Rows || fj.Stats != s.shape() || fj.OutSchema != s.OutSchema() || fj.Rels != s.Rels || fj.Est != fake.est {
		t.Error("step.Keep did not give the candidate the step's output shape and its admitted estimate")
	}
	if len(s.OuterCols) != 1 || len(s.Preds) != 1 || len(s.Residual) != 0 {
		t.Errorf("step keys = %v/%v, preds %d, residual %d", s.OuterCols, s.InnerCols, len(s.Preds), len(s.Residual))
	}
	rows, _ := runNode(t, p)
	wantRows, _ := runNode(t, want)
	if !slices.Equal(sqlref.Canon(rows), sqlref.Canon(wantRows)) {
		t.Error("plan through the registered method returns different rows")
	}

	// Priced out of reach, it is still offered and counted, never
	// chosen — and without a tracer never built.
	o2 := only(t, "hash")
	dear := &fakeJoin{est: cost.Estimate{PageReads: 1e12}}
	o2.Register(dear)
	if p2 := mustOptimize(t, o2); p2.Find("FakeJoin") != nil {
		t.Error("costliest candidate chosen")
	}
	if dear.built != 0 {
		t.Errorf("a dominated candidate was built %d times", dear.built)
	}
	if got, n := o2.Metrics.PlansConsidered, ref.Metrics.PlansConsidered+2; got != n {
		t.Errorf("PlansConsidered = %d, want %d (a pruned offer still counts)", got, n)
	}

	// What depends only on the (outer subset, inner) pair is derived
	// once: every outer plan kept for {A,B} (hash-joined, and ordered
	// by a merge join) extends with B2 from one Preds slice.
	o3 := only(t, "hash", "merge")
	seen := &fakeJoin{est: cost.Estimate{PageReads: 1e12}}
	o3.Register(seen)
	if _, err := o3.OptimizeBlock(&query.Block{
		Rels: []query.RelRef{{Name: "A"}, {Name: "B"}, {Name: "B", Alias: "B2"}},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "A.k"), expr.NewCol(2, "B.k")),
			expr.Eq(expr.NewCol(2, "B.k"), expr.NewCol(4, "B2.k")),
		},
	}); err != nil {
		t.Fatal(err)
	}
	type pair struct {
		outer query.RelSet
		inner int
	}
	first, outers := map[pair]*JoinStep{}, map[pair]int{}
	for i := range seen.steps {
		st := &seen.steps[i]
		k := pair{st.Outer.Rels, st.Inner.Index}
		outers[k]++
		f, ok := first[k]
		if !ok {
			first[k] = st
			continue
		}
		if len(st.Preds) == 0 || &st.Preds[0] != &f.Preds[0] || &st.OuterCols[0] != &f.OuterCols[0] {
			t.Errorf("two outers of %v + %s derived their predicates separately", k.outer.Members(), st.Inner.Ref.Binding())
		}
	}
	if outers[pair{query.NewRelSet(0, 1), 2}] < 2 {
		t.Fatalf("{A,B} kept %d outer plans, want at least 2 for the check", outers[pair{query.NewRelSet(0, 1), 2}])
	}
}

func mustOptimize(t *testing.T, o *Optimizer) *plan.Node {
	t.Helper()
	p, err := o.OptimizeBlock(joinAB())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPagesOf(t *testing.T) {
	if PagesOf(0, 8) != 0 {
		t.Error("no rows, no pages")
	}
	if PagesOf(1, 8) != 1 {
		t.Error("one row, one page")
	}
	// 4096/8 = 512 rows per page.
	if PagesOf(513, 8) != 2 {
		t.Error("just over a page")
	}
	if PagesOf(10, 10000) != 10 {
		t.Error("row wider than a page: one row per page")
	}
}
