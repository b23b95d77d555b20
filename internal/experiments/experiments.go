// Package experiments implements the reproduction suite: one runnable
// experiment per figure/table of the paper (and per quantitative prose
// claim), as indexed in EXPERIMENTS.md. Each experiment builds its own
// workload, runs real plans through the executor, and reports measured
// cost counters next to the optimizer's estimates. The cmd/filterbench
// CLI and the repository's benchmark suite are thin wrappers over this
// package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
)

// Report is one experiment's output: a titled, aligned table plus notes.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one table row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a free-form note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report with aligned columns.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	if len(r.Header) > 0 {
		writeRow(r.Header)
		var sep []string
		for _, w := range widths[:len(r.Header)] {
			sep = append(sep, strings.Repeat("-", w))
		}
		writeRow(sep)
	}
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is one experiment entry point.
type Runner func() (*Report, error)

// Entry describes a registered experiment.
type Entry struct {
	ID    string
	Title string
	Run   Runner
}

// Registry lists every experiment in paper order.
var Registry = []Entry{
	{"E1", "Table 1: Filter Join cost components", E1CostComponents},
	{"E2", "Figure 3: the six join orders and their magic variants", E2JoinOrders},
	{"E3", "Figure 4: restricted-view cardinality vs filter selectivity (line fit)", E3CardinalityFit},
	{"E4", "Figure 5: parametric cost equivalence classes and O(1) amortization", E4EquivClasses},
	{"E5", "Figure 6: join-strategy taxonomy across domains", E5Taxonomy},
	{"E6", "Crossover: magic rewriting vs original vs cost-based choice", E6Crossover},
	{"E7", "Optimizer complexity with and without the Filter Join", E7OptComplexity},
	{"E8", "Distributed regimes: semi-join vs fetch-matches vs ship-whole", E8Distributed},
	{"E9", "Bloom filters: bits/entry vs false positives vs total cost", E9Bloom},
	{"E10", "User-defined relations: invocation strategies", E10UDR},
	{"E11", "Estimate accuracy: optimizer estimates vs executed counters", E11EstimateAccuracy},
	{"E12", "Multi-attribute filter sets (Limitation 3 subsets)", E12AttrSubsets},
	{"E13", "Ablation: Limitation 2 vs prefix production sets", E13PrefixProduction},
	{"E14", "Multiple views in one query (§2.1 interaction)", E14MultiView},
	{"E15", "Interesting orders: property memo and sort elision", E15SortElision},
	{"E17", "Fault-injected transport: retry recovery and graceful degradation", E17Robustness},
	{"E18", "Serving layer: plan cache hit rate and run-time view planning, cached vs uncached",
		func() (*Report, error) { return E18Serving(E18Sessions, E18Queries) }},
	{"E20", "Adaptive re-optimization: statistics feedback on correlated data", E20Adaptive},
}

// ByID finds an experiment by its id (case-insensitive).
func ByID(id string) (Entry, bool) {
	for _, e := range Registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Entry{}, false
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

// optimizer builds an optimizer over cat; fj nil means no Filter Join.
func optimizer(cat *catalog.Catalog, model cost.Model, fj *core.Method, disabled ...string) *opt.Optimizer {
	o := opt.New(cat, model)
	for _, d := range disabled {
		o.Disabled[d] = true
	}
	if fj != nil {
		o.Register(fj)
	}
	return o
}

// measured runs a plan and returns (rows produced, measured counters).
func measured(p *plan.Node) (int, cost.Counter, error) {
	ctx := exec.NewContext()
	n, err := exec.Count(ctx, p.Make())
	if err != nil {
		return 0, cost.Counter{}, err
	}
	return n, *ctx.Counter, nil
}

// optimizeRun optimizes b and executes the plan.
func optimizeRun(o *opt.Optimizer, b *query.Block) (*plan.Node, int, cost.Counter, error) {
	p, err := o.OptimizeBlock(b)
	if err != nil {
		return nil, 0, cost.Counter{}, err
	}
	n, c, err := measured(p)
	return p, n, c, err
}

// resultSet drains a plan into a sorted canonical row list (for
// correctness cross-checks inside experiments).
func resultSet(p *plan.Node) ([]string, error) {
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, p.Make())
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
