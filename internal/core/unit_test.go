package core

import (
	"math"
	"strings"
	"testing"

	"filterjoin/internal/cost"
)

func TestComponentsTotalSums(t *testing.T) {
	c := Components{
		JoinCostP:       cost.Estimate{PageReads: 1},
		ProductionCostP: cost.Estimate{PageWrites: 2},
		ProjCostF:       cost.Estimate{CPUTuples: 3},
		AvailCostF:      cost.Estimate{NetBytes: 4},
		FilterCostRk:    cost.Estimate{PageReads: 5},
		AvailCostRkP:    cost.Estimate{NetMsgs: 6},
		FinalJoinCost:   cost.Estimate{CPUTuples: 7},
	}
	tot := c.Total()
	if tot.PageReads != 6 || tot.PageWrites != 2 || tot.CPUTuples != 10 ||
		tot.NetBytes != 4 || tot.NetMsgs != 6 {
		t.Errorf("Total = %+v", tot)
	}
	if len(c.Names()) != 7 || len(c.Values()) != 7 {
		t.Error("seven components, Table 1")
	}
	// Names/Values alignment: the sum of Values equals Total.
	var sum cost.Estimate
	for _, v := range c.Values() {
		sum = sum.Plus(v)
	}
	if sum != tot {
		t.Error("Values must cover exactly the Total")
	}
}

func TestChoiceString(t *testing.T) {
	ch := &Choice{
		InnerName:       "V",
		FilterOuterCols: []int{1},
		FilterInnerCols: []int{6},
		Repr:            ReprBloom,
		Access:          AccessMagicView,
		Materialize:     true,
		FilterCard:      12,
		FilterSel:       0.05,
	}
	s := ch.String()
	for _, want := range []string{"bloom", "magic-view", "materialize-P", "|F|≈12"} {
		if !strings.Contains(s, want) {
			t.Errorf("Choice.String() missing %q: %s", want, s)
		}
	}
}

func TestReprAndAccessStrings(t *testing.T) {
	if ReprExact.String() != "exact" || ReprBloom.String() != "bloom" {
		t.Error("repr names")
	}
	for a, want := range map[InnerAccess]string{
		AccessScanFilter: "scan+filter",
		AccessIndexProbe: "index-probe",
		AccessMagicView:  "magic-view",
		AccessRemote:     "remote-semijoin",
		AccessFuncCalls:  "consecutive-calls",
	} {
		if a.String() != want {
			t.Errorf("%d renders %q", a, a.String())
		}
	}
}

func TestDedupeByInner(t *testing.T) {
	k := dedupeByInner([]int{1, 4, 9}, []int{6, 6, 7})
	o, i, alts := k.outer, k.inner, k.outerAlts
	if len(o) != 2 || o[0] != 1 || o[1] != 9 || i[0] != 6 || i[1] != 7 {
		t.Errorf("dedupe = %v, %v", o, i)
	}
	if len(alts[0]) != 2 || alts[0][1] != 4 {
		t.Errorf("alternatives for inner 6 = %v, want [1 4]", alts[0])
	}
	if len(alts[1]) != 1 || alts[1][0] != 9 {
		t.Errorf("alternatives for inner 7 = %v", alts[1])
	}
}

func TestCoversArgs(t *testing.T) {
	if !coversArgs([]int{0, 1}, []int{1, 0, 2}) {
		t.Error("superset covers")
	}
	if coversArgs([]int{0, 3}, []int{0, 1}) {
		t.Error("missing arg must not cover")
	}
}

func TestCosterLineFit(t *testing.T) {
	vc := &ViewCoster{BaseRows: 400}
	vc.Points = []SamplePoint{
		{Sel: 0.0, Rows: 0},
		{Sel: 0.5, Rows: 200},
		{Sel: 1.0, Rows: 400},
	}
	vc.fitCardinalityLine()
	if math.Abs(vc.CardA) > 1e-9 || math.Abs(vc.CardB-400) > 1e-9 {
		t.Errorf("fit = %g + %g·sel", vc.CardA, vc.CardB)
	}
	if vc.Rows(0.25) != 100 {
		t.Errorf("Rows(0.25) = %g", vc.Rows(0.25))
	}
	if vc.Rows(2.0) != 400 {
		t.Error("rows clamp at BaseRows")
	}
	if vc.Rows(-1) != 0 {
		t.Error("rows clamp at 0")
	}
}

func TestCosterSinglePointFit(t *testing.T) {
	vc := &ViewCoster{BaseRows: 10}
	vc.Points = []SamplePoint{{Sel: 0.5, Rows: 5}}
	vc.fitCardinalityLine()
	if vc.Rows(0.5) != 5 {
		t.Errorf("single-point fit = %g", vc.Rows(0.5))
	}
}

func TestCosterCostInterpolation(t *testing.T) {
	vc := &ViewCoster{}
	vc.Points = []SamplePoint{
		{Sel: 0.2, Est: cost.Estimate{PageReads: 10}},
		{Sel: 0.8, Est: cost.Estimate{PageReads: 40}},
	}
	mid := vc.Cost(0.5)
	if math.Abs(mid.PageReads-25) > 1e-9 {
		t.Errorf("interpolated reads = %g, want 25", mid.PageReads)
	}
	if vc.Cost(0.1).PageReads != 10 {
		t.Error("below range extrapolates flat")
	}
	if vc.Cost(0.9).PageReads != 40 {
		t.Error("above range extrapolates flat")
	}
	if vc.Invocations() != 2 {
		t.Error("Invocations counts points")
	}
	empty := &ViewCoster{}
	if empty.Cost(0.5) != (cost.Estimate{}) {
		t.Error("empty coster returns zero estimate")
	}
}

func TestAttrsKey(t *testing.T) {
	if attrsKey([]int{0, 2}) != "0,2" {
		t.Errorf("attrsKey = %q", attrsKey([]int{0, 2}))
	}
	if attrsKey(nil) != "" {
		t.Error("empty attrs")
	}
}

func TestIndexPermutation(t *testing.T) {
	perm := indexPermutation([]int{3, 1}, []int{1, 3})
	if perm[0] != 1 || perm[1] != 0 {
		t.Errorf("perm = %v", perm)
	}
	perm = indexPermutation([]int{9}, []int{1})
	if perm[0] != -1 {
		t.Error("missing column yields -1")
	}
}
