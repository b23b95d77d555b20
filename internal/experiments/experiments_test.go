package experiments_test

import (
	"fmt"
	"strings"
	"testing"

	"filterjoin/internal/experiments"
)

// fmtSscan wraps fmt.Sscan for cell parsing.
func fmtSscan(s string, out *float64) (int, error) { return fmt.Sscan(s, out) }

// TestAllExperimentsRun executes every registered experiment end to end
// and sanity-checks the reports. This is the reproduction suite's
// integration test: every figure/table artifact must regenerate.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range experiments.Registry {
		e := e
		if e.ID == "E18" {
			// The integration test only needs the serving experiment to
			// run; -race multiplies the cost of its concurrent sessions,
			// so it gets the short stream TestE18HitRate pins.
			e.Run = func() (*experiments.Report, error) { return experiments.E18Serving(experiments.E18Sessions, 240) }
		}
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run()
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if r.ID != e.ID {
				t.Errorf("report id %q, want %q", r.ID, e.ID)
			}
			if len(r.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			out := r.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("rendered report missing id header:\n%s", out)
			}
			t.Logf("\n%s", out)
		})
	}
}

// TestHeadlineInvariants pins the reproduction's quantitative claims so
// regressions in costing or execution surface as failures, not just as
// different-looking report text.
func TestHeadlineInvariants(t *testing.T) {
	t.Run("E6_crossover_shape", func(t *testing.T) {
		r, err := experiments.E6Crossover()
		if err != nil {
			t.Fatal(err)
		}
		parse := func(s string) float64 {
			var f float64
			if _, err := fmtSscan(s, &f); err != nil {
				t.Fatalf("bad cell %q", s)
			}
			return f
		}
		// Columns: frac, original, magic, cost-based, chosen, ratio.
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		if parse(first[1])/parse(first[2]) < 5 {
			t.Errorf("magic should win by a large factor at the selective end: %s vs %s", first[1], first[2])
		}
		if parse(last[2]) <= parse(last[1]) {
			t.Errorf("magic should lose at the unselective end: %s vs %s", last[2], last[1])
		}
		for _, row := range r.Rows {
			cb := parse(row[3])
			better := parse(row[1])
			if parse(row[2]) < better {
				better = parse(row[2])
			}
			if cb > better*1.05+1 {
				t.Errorf("cost-based (%s) should track min(original, magic)=%.1f at frac %s", row[3], better, row[0])
			}
		}
	})

	t.Run("E7_bounded_ratio", func(t *testing.T) {
		r, err := experiments.E7OptComplexity()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			var ratio float64
			if _, err := fmtSscan(row[3], &ratio); err != nil {
				t.Fatalf("bad ratio %q", row[3])
			}
			if ratio > 2.0 {
				t.Errorf("N=%s: plans ratio %.2f exceeds the constant bound", row[0], ratio)
			}
		}
	})

	t.Run("E3_fit_error_small", func(t *testing.T) {
		r, err := experiments.E3CardinalityFit()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			var pct float64
			if _, err := fmtSscan(trimPct(row[4]), &pct); err != nil {
				t.Fatalf("bad error cell %q", row[4])
			}
			if pct > 10 {
				t.Errorf("fit error %s%% at sel %s exceeds 10%%", row[4], row[0])
			}
		}
	})

	// E20Adaptive itself fails on a row mismatch between modes, a
	// missing epoch bump or a cached plan on feedback run 2, so a nil
	// error covers those; the cells pin the plan flip's price.
	t.Run("E20_feedback_flip", func(t *testing.T) {
		r, err := experiments.E20Adaptive()
		if err != nil {
			t.Fatal(err)
		}
		// Columns: mode, run, rows, cost, cpu, pageR, cache.
		want := [][]string{
			{"static", "1", "400", "1197.80", "miss"},
			{"static", "2", "400", "1197.80", "hit"},
			{"feedback", "1", "400", "1197.80", "miss"},
			{"feedback", "2", "400", "989.20", "miss"},
		}
		if len(r.Rows) != len(want) {
			t.Fatalf("E20 has %d rows, want %d", len(r.Rows), len(want))
		}
		for i, w := range want {
			row := r.Rows[i]
			got := []string{row[0], row[1], row[2], row[3], row[6]}
			if fmt.Sprint(got) != fmt.Sprint(w) {
				t.Errorf("E20 row %d (mode, run, rows, cost, cache) = %v, want %v", i, got, w)
			}
		}
	})
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
	// Columns: mode, sessions, queries, hits, misses, hit_rate, ...; row
	// 0 is the cached mode.
	var hr float64
	if _, err := fmtSscan(trimPct(r.Rows[0][5]), &hr); err != nil {
		t.Fatalf("bad hit-rate cell %q", r.Rows[0][5])
	}
	if hr < 90 {
		t.Errorf("cached hit rate %.1f%% below the 90%% target", hr)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING: hit rate") {
			t.Errorf("report warns about the hit rate: %s", n)
		}
	}
}

func trimPct(s string) string {
	if len(s) > 0 && s[len(s)-1] == '%' {
		return s[:len(s)-1]
	}
	return s
}

func TestByID(t *testing.T) {
	if _, ok := experiments.ByID("e6"); !ok {
		t.Error("ByID should be case-insensitive")
	}
	if _, ok := experiments.ByID("E99"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
}
