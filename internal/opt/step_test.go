package opt

import (
	"slices"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/plan"
	"filterjoin/internal/sqlref"
)

// fakeJoin is a JoinMethod that knows nothing but the step: it offers
// one candidate per call, a hash join priced at a fixed estimate.
type fakeJoin struct {
	est   cost.Estimate
	steps []*JoinStep
	built int
}

func (f *fakeJoin) Name() string { return "fake" }

func (f *fakeJoin) Offer(s *JoinStep) error {
	f.steps = append(f.steps, s)
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
	for _, st := range fake.steps {
		if st.Outer == fj.Children[0] {
			s = st
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
