package experiments_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"filterjoin/internal/experiments"
)

// unpinned is the one registered experiment without a testdata file:
// E18's hits and misses move with how its four sessions interleave, so
// TestAllExperimentsRun only runs it and TestE18HitRate checks its
// deterministic half.
const unpinned = "E18"

// pinned decodes testdata/<id>.json, which is exactly what
// `go run ./cmd/filterbench -json <id>` prints.
func pinned(t *testing.T, id string) *experiments.Report {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rs []*experiments.Report
	if err := json.Unmarshal(b, &rs); err != nil {
		t.Fatalf("testdata/%s.json: %v", id, err)
	}
	if len(rs) != 1 || rs[0].ID != id {
		t.Fatalf("testdata/%s.json must hold exactly one report, %s", id, id)
	}
	return rs[0]
}

// TestExperimentReports runs every deterministic experiment and
// compares its report, cell by cell and note by note, with the pinned
// one. Wall-clock columns (headers ending in "(ms)") must be present;
// their values are not compared.
func TestExperimentReports(t *testing.T) {
	for _, e := range experiments.Registry {
		if e.ID == unpinned {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			want := pinned(t, e.ID)
			got, err := e.Run()
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(got.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			if !strings.Contains(got.String(), e.ID) {
				t.Errorf("rendered report missing id header:\n%s", got)
			}
			rerecord := fmt.Sprintf("if the change is intended, re-record with: go run ./cmd/filterbench -json %s > internal/experiments/testdata/%s.json", e.ID, e.ID)
			if got.ID != want.ID || got.Title != want.Title || !slices.Equal(got.Header, want.Header) {
				t.Fatalf("%s: id, title or header %q %q %q, pinned %q %q %q; %s",
					e.ID, got.ID, got.Title, got.Header, want.ID, want.Title, want.Header, rerecord)
			}
			if len(got.Rows) != len(want.Rows) || len(got.Notes) != len(want.Notes) {
				t.Fatalf("%s: %d rows and %d notes, pinned %d and %d; %s",
					e.ID, len(got.Rows), len(got.Notes), len(want.Rows), len(want.Notes), rerecord)
			}
			for i, w := range want.Rows {
				g := got.Rows[i]
				if len(g) != len(w) {
					t.Errorf("%s row %d: %d cells, pinned %d; %s", e.ID, i, len(g), len(w), rerecord)
					continue
				}
				for j := range w {
					h := want.Header[j]
					if strings.HasSuffix(h, "(ms)") {
						if g[j] == "" {
							t.Errorf("%s row %d, column %q: empty wall-clock cell", e.ID, i, h)
						}
					} else if g[j] != w[j] {
						t.Errorf("%s row %d (%s), column %q: got %q, pinned %q; %s", e.ID, i, w[0], h, g[j], w[j], rerecord)
					}
				}
			}
			for i, w := range want.Notes {
				if got.Notes[i] != w {
					t.Errorf("%s note %d: got %q, pinned %q; %s", e.ID, i, got.Notes[i], w, rerecord)
				}
			}
		})
	}
}

// TestAllExperimentsRun runs the unpinned experiment end to end and
// sanity-checks its report; TestExperimentReports covers the rest. -race
// multiplies the cost of E18's concurrent sessions, so it gets the short
// stream TestE18HitRate pins.
func TestAllExperimentsRun(t *testing.T) {
	t.Run(unpinned, func(t *testing.T) {
		if _, ok := experiments.ByID(unpinned); !ok {
			t.Fatalf("%s is not registered", unpinned)
		}
		r, err := experiments.E18Serving(experiments.E18Sessions, 240)
		if err != nil {
			t.Fatalf("%s failed: %v", unpinned, err)
		}
		if r.ID != unpinned {
			t.Errorf("report id %q, want %q", r.ID, unpinned)
		}
		if len(r.Rows) == 0 {
			t.Errorf("%s produced no rows", unpinned)
		}
		if out := r.String(); !strings.Contains(out, unpinned) {
			t.Errorf("rendered report missing id header:\n%s", out)
		}
	})
}

// col is the index of the column headed h.
func col(t *testing.T, r *experiments.Report, h string) int {
	t.Helper()
	i := slices.Index(r.Header, h)
	if i < 0 {
		t.Fatalf("%s has no column %q", r.ID, h)
	}
	return i
}

// row is the first row whose first cell is label.
func row(t *testing.T, r *experiments.Report, label string) []string {
	t.Helper()
	for _, rw := range r.Rows {
		if rw[0] == label {
			return rw
		}
	}
	t.Fatalf("%s has no row %q", r.ID, label)
	return nil
}

// num parses a numeric cell, ignoring a trailing '%'.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	var f float64
	if _, err := fmt.Sscan(strings.TrimSuffix(cell, "%"), &f); err != nil {
		t.Fatalf("bad numeric cell %q", cell)
	}
	return f
}

// headlines states one paper claim per pinned experiment as an
// assertion over its pinned report; each name starts with the
// experiment's id.
var headlines = []struct {
	name  string
	check func(t *testing.T, r *experiments.Report)
}{
	{"E1_seven_components_sum", func(t *testing.T, r *experiments.Report) {
		total := slices.IndexFunc(r.Rows, func(rw []string) bool { return rw[0] == "TOTAL (filter join est.)" })
		if total != 7 {
			t.Fatalf("TOTAL is row %d, want it after Table 1's seven components", total)
		}
		for c := 1; c < len(r.Header); c++ {
			sum := 0.0
			for _, rw := range r.Rows[:total] {
				sum += num(t, rw[c])
			}
			if tot := num(t, r.Rows[total][c]); math.Abs(sum-tot) > 0.05 {
				t.Errorf("%s: components sum to %.2f, TOTAL is %.2f", r.Header[c], sum, tot)
			}
		}
		if got := row(t, r, "chosen by optimizer")[1:]; !slices.Equal(got, []string{"yes", "yes", "no"}) {
			t.Errorf("chosen by optimizer = %v, want the Filter Join at 2%% and 10%% only", got)
		}
	}},
	{"E2_six_orders", func(t *testing.T, r *experiments.Report) {
		rows, fj, meas := col(t, r, "rows"), col(t, r, "filter join?"), col(t, r, "measured")
		if len(r.Rows) != 6 {
			t.Fatalf("%d join orders, want Fig 3's six", len(r.Rows))
		}
		best := r.Rows[0]
		for i, rw := range r.Rows {
			if rw[rows] != "174" {
				t.Errorf("order %s returned %s rows, want 174", rw[0], rw[rows])
			}
			if (rw[fj] == "yes") != (i < 3) {
				t.Errorf("order %s: filter join? %s, want it in orders 1-3 only", rw[0], rw[fj])
			}
			if num(t, rw[meas]) < num(t, best[meas]) {
				best = rw
			}
		}
		if best[0] != "3" {
			t.Errorf("order %s is the cheapest measured, want order 3 (filter from the big departments)", best[0])
		}
	}},
	{"E3_fit_error_small", func(t *testing.T, r *experiments.Report) {
		c := col(t, r, "rel err")
		for _, rw := range r.Rows {
			if num(t, rw[c]) > 10 {
				t.Errorf("fit error %s at sel %s exceeds 10%%", rw[c], rw[0])
			}
		}
	}},
	{"E4_amortized_costing", func(t *testing.T, r *experiments.Report) {
		var first, more, after int
		if len(r.Notes) < 2 {
			t.Fatalf("E4 has %d notes, want the two invocation counts", len(r.Notes))
		}
		fmt.Sscanf(r.Notes[0], "first optimization: %d nested invocations", &first)
		fmt.Sscanf(r.Notes[1], "after %d further optimizations: %d nested invocations", &more, &after)
		if first == 0 || more != 50 || after != first {
			t.Errorf("nested invocations %d after the first optimization and %d after %d more; want unchanged after 50",
				first, after, more)
		}
	}},
	{"E5_filter_join_wins_remote_and_view", func(t *testing.T, r *experiments.Report) {
		fj := row(t, r, "filter join")
		for _, h := range []string{"remote", "view"} {
			c := col(t, r, h)
			for _, rw := range r.Rows {
				if rw[c] != "—" && num(t, rw[c]) < num(t, fj[c]) {
					t.Errorf("%s: %s (%s) is cheaper than the filter join (%s)", h, strings.TrimSpace(rw[0]), rw[c], fj[c])
				}
			}
		}
	}},
	{"E6_crossover_shape", func(t *testing.T, r *experiments.Report) {
		orig, magic, cb := col(t, r, "original"), col(t, r, "always magic"), col(t, r, "cost-based")
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		if num(t, first[orig])/num(t, first[magic]) < 5 {
			t.Errorf("magic should win by a large factor at the selective end: %s vs %s", first[orig], first[magic])
		}
		if num(t, last[magic]) <= num(t, last[orig]) {
			t.Errorf("magic should lose at the unselective end: %s vs %s", last[magic], last[orig])
		}
		for _, rw := range r.Rows {
			better := math.Min(num(t, rw[orig]), num(t, rw[magic]))
			if num(t, rw[cb]) > better*1.05+1 {
				t.Errorf("cost-based (%s) should track min(original, magic)=%.1f at frac %s", rw[cb], better, rw[0])
			}
		}
	}},
	{"E7_bounded_ratio", func(t *testing.T, r *experiments.Report) {
		c := col(t, r, "ratio")
		for _, rw := range r.Rows {
			if ratio := num(t, rw[c]); ratio > 2.0 {
				t.Errorf("N=%s: plans ratio %.2f exceeds the constant bound", rw[0], ratio)
			}
		}
	}},
	{"E8_regimes", func(t *testing.T, r *experiments.Report) {
		w := col(t, r, "winner")
		for _, rw := range r.Rows {
			cheapest := 1
			for c := 2; c < w; c++ {
				if num(t, rw[c]) < num(t, rw[cheapest]) {
					cheapest = c
				}
			}
			if rw[w] != r.Header[cheapest] {
				t.Errorf("net weight %s: winner %s, but %s is cheapest", rw[0], rw[w], r.Header[cheapest])
			}
		}
		if got := row(t, r, "0")[w]; got != "fetch-matches" {
			t.Errorf("winner at network weight 0 is %s, want fetch-matches (System R*)", got)
		}
		if got := row(t, r, "100")[w]; got != "semi-join" {
			t.Errorf("winner at network weight 100 is %s, want semi-join (SDD-1)", got)
		}
	}},
	{"E9_bloom_budget", func(t *testing.T, r *experiments.Report) {
		repr, ship, theory, meas := col(t, r, "repr"), col(t, r, "ship bytes"), col(t, r, "FPR theory"), col(t, r, "FPR measured")
		extra, cost := col(t, r, "extra rows"), col(t, r, "measured cost")
		exact := row(t, r, "exact")
		var prev []string
		for _, rw := range r.Rows {
			if rw[repr] != "bloom" {
				continue
			}
			if d := math.Abs(num(t, rw[meas]) - num(t, rw[theory])); d > 0.01 {
				t.Errorf("%s bits/entry: measured FPR %s is %.4f from theory %s", rw[1], rw[meas], d, rw[theory])
			}
			if num(t, rw[ship]) >= num(t, exact[ship]) {
				t.Errorf("%s bits/entry ships %s bytes, exact ships %s", rw[1], rw[ship], exact[ship])
			}
			if prev != nil && (num(t, rw[extra]) > num(t, prev[extra]) || num(t, rw[cost]) > num(t, prev[cost])) {
				t.Errorf("%s bits/entry: extra rows %s and cost %s rose from %s and %s at %s bits/entry",
					rw[1], rw[extra], rw[cost], prev[extra], prev[cost], prev[1])
			}
			prev = rw
		}
	}},
	{"E10_no_duplicate_calls", func(t *testing.T, r *experiments.Report) {
		c := col(t, r, "fn calls")
		probe, memo := num(t, row(t, r, "repeated probe")[c]), num(t, row(t, r, "probe w/ memo cache")[c])
		if fj := num(t, row(t, r, "filter join (consecutive)")[c]); fj != memo || fj >= probe {
			t.Errorf("filter join makes %v calls; want memo's %v, fewer than repeated probe's %v", fj, memo, probe)
		}
	}},
	{"E11_estimates_within_2x", func(t *testing.T, r *experiments.Report) {
		c := col(t, r, "est/meas")
		for _, rw := range r.Rows {
			if q := num(t, rw[c]); q < 0.5 || q > 2 {
				t.Errorf("%s: est/meas %s outside [0.5, 2]", rw[0], rw[c])
			}
		}
	}},
	{"E12_cheapest_subset_chosen", func(t *testing.T, r *experiments.Report) {
		est := col(t, r, "est total")
		cheapest := r.Rows[0]
		for _, rw := range r.Rows {
			if num(t, rw[est]) < num(t, cheapest[est]) {
				cheapest = rw
			}
		}
		want := "optimizer chose: " + cheapest[0] + ";"
		if !slices.ContainsFunc(r.Notes, func(n string) bool { return strings.HasPrefix(n, want) }) {
			t.Errorf("notes %q do not say %q", r.Notes, want)
		}
	}},
	{"E13_relaxation_never_worse", func(t *testing.T, r *experiments.Report) {
		lim, rel := col(t, r, "cost (Lim. 2)"), col(t, r, "cost (relaxed)")
		plim, prel := col(t, r, "plans (Lim. 2)"), col(t, r, "plans (relaxed)")
		for _, rw := range r.Rows {
			if num(t, rw[rel]) > num(t, rw[lim]) {
				t.Errorf("%s: relaxed cost %s above Limitation 2's %s", rw[0], rw[rel], rw[lim])
			}
			if extra := num(t, rw[prel]) - num(t, rw[plim]); extra > 2 {
				t.Errorf("%s: the relaxed search considers %v extra plans, want at most 2", rw[0], extra)
			}
		}
	}},
	{"E14_filter_joins_never_worse", func(t *testing.T, r *experiments.Report) {
		plain, fj := col(t, r, "plain"), col(t, r, "filter join")
		for _, rw := range r.Rows {
			if num(t, rw[fj]) > num(t, rw[plain]) {
				t.Errorf("big-dept frac %s: filter join %s above plain %s", rw[0], rw[fj], rw[plain])
			}
		}
	}},
	{"E15_sort_elision", func(t *testing.T, r *experiments.Report) {
		memo, plans, sorts, meas := col(t, r, "memo"), col(t, r, "plans"), col(t, r, "sorts"), col(t, r, "meas total")
		byMode := map[string]map[string][]string{}
		for _, rw := range r.Rows {
			if byMode[rw[0]] == nil {
				byMode[rw[0]] = map[string][]string{}
			}
			byMode[rw[0]][rw[memo]] = rw
		}
		for q, m := range byMode {
			if m["on"] == nil || m["off"] == nil || m["on"][plans] != m["off"][plans] {
				t.Errorf("%s: plans with the memo on and off differ: %v", q, m)
			}
		}
		on, off := byMode["order by join key"]["on"], byMode["order by join key"]["off"]
		if on == nil || off == nil || on[sorts] != "0" || num(t, on[meas]) >= num(t, off[meas]) {
			t.Errorf("order by join key: memo on %v, off %v; want 0 sorts and a lower measured total with the memo on", on, off)
		}
	}},
	{"E17_chaos_parity", func(t *testing.T, r *experiments.Report) {
		seed, parity, fb := col(t, r, "seed"), col(t, r, "parity"), col(t, r, "fb")
		for _, rw := range r.Rows {
			if rw[seed] != "-" && rw[parity] != "yes" {
				t.Errorf("%s seed %s: parity %s", rw[0], rw[seed], rw[parity])
			}
		}
		if got := row(t, r, "degrade-to-fallback")[fb]; got != "1" {
			t.Errorf("degrade-to-fallback: fb %s, want 1", got)
		}
	}},
	// E20Adaptive itself fails on a row mismatch between modes, a
	// missing epoch bump or a cached plan on feedback run 2; the pinned
	// cells show the flip's price.
	{"E20_feedback_flip", func(t *testing.T, r *experiments.Report) {
		rows, cost, cache := col(t, r, "rows"), col(t, r, "cost"), col(t, r, "cache")
		if len(r.Rows) != 4 {
			t.Fatalf("E20 has %d rows, want static and feedback runs 1 and 2", len(r.Rows))
		}
		for i, want := range []string{"miss", "hit", "miss", "miss"} {
			if rw := r.Rows[i]; rw[cache] != want || rw[rows] != r.Rows[0][rows] {
				t.Errorf("%s run %s: cache %s and %s rows, want %s and %s", rw[0], rw[1], rw[cache], rw[rows], want, r.Rows[0][rows])
			}
		}
		static, feedback := num(t, r.Rows[1][cost]), num(t, r.Rows[3][cost])
		if feedback >= static {
			t.Errorf("feedback run 2 costs %v, static %v: the flip should be cheaper", feedback, static)
		}
	}},
}

// TestHeadlineInvariants checks each pinned report's paper claim on the
// pinned JSON; TestExperimentReports keeps that JSON equal to what the
// code prints, so re-recording a file cannot quietly break a claim.
func TestHeadlineInvariants(t *testing.T) {
	seen := map[string]int{}
	for _, h := range headlines {
		id, _, _ := strings.Cut(h.name, "_")
		seen[id]++
		t.Run(h.name, func(t *testing.T) { h.check(t, pinned(t, id)) })
	}
	for _, e := range experiments.Registry {
		if e.ID != unpinned && seen[e.ID] != 1 {
			t.Errorf("%s has %d headline rows, want 1", e.ID, seen[e.ID])
		}
	}
}

// TestE18HitRate pins the deterministic half of the serving experiment:
// on a short stream every distinct (template, selectivity-class) key
// pays exactly one miss, so the hit rate must already clear the 90%
// target. (Row parity and the restricted-view plan/hit accounting are
// hard failures inside the experiment.)
func TestE18HitRate(t *testing.T) {
	r, err := experiments.E18Serving(experiments.E18Sessions, 240)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is the cached mode.
	if hr := num(t, r.Rows[0][col(t, r, "hit_rate")]); hr < 90 {
		t.Errorf("cached hit rate %.1f%% below the 90%% target", hr)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING: hit rate") {
			t.Errorf("report warns about the hit rate: %s", n)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := experiments.ByID("e6"); !ok {
		t.Error("ByID should be case-insensitive")
	}
	if _, ok := experiments.ByID("E99"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
}
