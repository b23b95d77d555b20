package opt

import (
	"encoding/json"
	"strings"
	"testing"

	"filterjoin/internal/expr"
	"filterjoin/internal/query"
)

func traceTwoRel(t *testing.T, methods ...string) (*Optimizer, *CollectingTracer) {
	t.Helper()
	o := only(t, methods...)
	tr := &CollectingTracer{}
	o.Tracer = tr
	b := &query.Block{
		Rels:  []query.RelRef{{Name: "A"}, {Name: "B"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "A.k"), expr.NewCol(2, "B.k"))},
	}
	if _, err := o.OptimizeBlock(b); err != nil {
		t.Fatal(err)
	}
	return o, tr
}

func TestTracerRecordsSearch(t *testing.T) {
	o, tr := traceTwoRel(t, "hash", "merge")

	var leaves, cands, kept int
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvLeaf:
			leaves++
		case EvCandidate:
			cands++
			if ev.Kept {
				kept++
			}
			if ev.Subset != "{A,B}" {
				t.Errorf("candidate subset = %q, want {A,B}", ev.Subset)
			}
			if ev.Cost <= 0 {
				t.Errorf("candidate %s has non-positive cost %v", ev.Method, ev.Cost)
			}
		}
	}
	if leaves != 2 {
		t.Errorf("leaf events = %d, want 2", leaves)
	}
	if int64(cands)+2 != o.Metrics.PlansConsidered {
		t.Errorf("candidate events = %d, want PlansConsidered-2 = %d",
			cands, o.Metrics.PlansConsidered-2)
	}
	if kept < 1 {
		t.Error("no candidate was marked kept")
	}
	// The first candidate for a fresh subset is always kept.
	for _, ev := range tr.Events {
		if ev.Kind == EvCandidate {
			if !ev.Kept {
				t.Errorf("first candidate for a fresh subset must be kept, got %+v", ev)
			}
			break
		}
	}
}

func TestTracerNestedAndDeterminism(t *testing.T) {
	run := func() []TraceEvent {
		o := only(t, "hash")
		tr := &CollectingTracer{}
		o.Tracer = tr
		b := &query.Block{
			Rels: []query.RelRef{{Name: "VA"}, {Name: "B"}},
			Preds: []expr.Expr{
				expr.Eq(expr.NewCol(0, "VA.k"), expr.NewCol(2, "B.k")),
			},
		}
		if _, err := o.OptimizeBlock(b); err != nil {
			t.Fatal(err)
		}
		return tr.Events
	}
	evs := run()
	var nested int
	for _, ev := range evs {
		if ev.Kind == EvNested {
			nested++
			if ev.Depth != 2 {
				t.Errorf("nested depth = %d, want 2", ev.Depth)
			}
		}
	}
	if nested != 1 {
		t.Errorf("nested events = %d, want 1 (the VA view block)", nested)
	}
	// Identical optimizations must produce identical traces (the DP
	// iterates subsets in sorted order).
	evs2 := run()
	if len(evs) != len(evs2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(evs), len(evs2))
	}
	for i := range evs {
		if evs[i] != evs2[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, evs[i], evs2[i])
		}
	}
}

func TestTracerRenderers(t *testing.T) {
	_, tr := traceTwoRel(t, "hash", "merge")

	text := tr.Text()
	for _, want := range []string{"leaf", "candidate", "{A,B}", "kept", "pruned"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	js, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []TraceEvent
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back) != len(tr.Events) {
		t.Fatalf("JSON has %d events, want %d", len(back), len(tr.Events))
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "candidate=") || !strings.Contains(sum, "HashJoin") {
		t.Errorf("Summary() = %q", sum)
	}

	tr.Reset()
	if len(tr.Events) != 0 {
		t.Error("Reset left events behind")
	}
	if js, err := tr.JSON(); err != nil || string(js) != "[]" {
		t.Errorf("empty JSON = %s, %v", js, err)
	}
}

func TestTracerOffByDefault(t *testing.T) {
	o := only(t, "hash")
	if o.Traces() {
		t.Error("Traces() must be false with no tracer installed")
	}
	// trace/Emit on a tracerless optimizer must be a no-op, not a panic.
	o.Emit(TraceEvent{Kind: EvLeaf})
}

// TestForkCarriesKnobsNotState: a fork plans for the same executor
// (BatchSize) under the same observer (Tracer) and the same toggles,
// but shares no mutable search state with its parent.
func TestForkCarriesKnobsNotState(t *testing.T) {
	o, tr := traceTwoRel(t, "hash")
	o.BatchSize = 7
	seen := len(tr.Events)

	f := o.Fork()
	if f.BatchSize != 7 {
		t.Errorf("fork BatchSize = %d, want the parent's 7", f.BatchSize)
	}
	if f.Tracer != Tracer(tr) {
		t.Error("fork dropped the parent's Tracer")
	}
	if f.Metrics != (Metrics{}) {
		t.Errorf("fork Metrics = %+v, want zero", f.Metrics)
	}
	f.Disabled["hash"] = true
	if o.Disabled["hash"] {
		t.Error("toggling a method on the fork toggled it on the parent")
	}
	before := o.Metrics
	if _, err := f.OptimizeBlock(&query.Block{Rels: []query.RelRef{{Name: "A"}}}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == seen {
		t.Error("planning on the fork emitted no trace events")
	}
	if o.Metrics != before {
		t.Error("planning on the fork moved the parent's Metrics before MergeMetrics")
	}
}
