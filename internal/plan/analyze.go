// Plan-level observability: every node built through NewNode produces
// instrumented operator trees, and FormatAnalyze renders a plan after
// execution with estimated-vs-actual annotations per operator — the
// EXPLAIN ANALYZE view that makes the optimizer's cost model auditable.
package plan

import (
	"fmt"
	"strings"
	"time"

	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
)

// NewNode finalizes a node under construction. ord is the physical sort
// order the node's output carries (nil for explicitly unordered): it is
// a parameter, not a field of the literal, so a constructor cannot leave
// the property undeclared and land an ordered operator in the memo's ""
// bucket. The node's Make is replaced by a version that wraps the built
// operator in an exec.Instrumented shim labeled with the node's kind and
// tagged with the node itself. Every plan-node constructor calls this,
// so any operator tree built from a finished plan carries per-node
// runtime accounting; parents that capture a child's Make afterwards
// (join candidates capture the outer's) compose instrumented subtrees
// automatically.
func NewNode(ord Ordering, n *Node) *Node {
	n.Ordering = ord
	if n.Make == nil {
		return n
	}
	mk := n.Make
	n.Make = func() exec.Operator { return exec.NewInstrumented(mk(), n.Kind, n) }
	return n
}

// AnalyzeOptions tunes FormatAnalyze.
type AnalyzeOptions struct {
	// ShowTime includes per-operator wall time (nondeterministic; off
	// for golden tests, on for interactive tools).
	ShowTime bool
	// ErrRatio flags operators whose estimated and actual cardinality
	// disagree by at least this factor. Values <= 1 mean the default 10.
	ErrRatio float64
}

// StatsByNode aggregates collected operator statistics by plan node.
// Nodes instantiated several times in one execution (a production set
// recomputed for the final join) get their instances merged. The second
// return value aggregates the Self cost and count of operators that
// belong to no node of this tree — sub-plans generated at run time by
// deferred planning (§4.2 magic rewrites of views).
func StatsByNode(root *Node, ops []*exec.OpStats) (map[*Node]*exec.OpStats, cost.Counter, int) {
	inTree := map[*Node]bool{}
	root.Walk(func(n *Node) { inTree[n] = true })
	byNode := map[*Node]*exec.OpStats{}
	var deferred cost.Counter
	nDeferred := 0
	for _, s := range ops {
		n, ok := s.Tag.(*Node)
		if !ok || !inTree[n] {
			deferred.Add(s.Self())
			nDeferred++
			continue
		}
		if cur, ok := byNode[n]; ok {
			cur.Merge(s)
		} else {
			cp := *s
			byNode[n] = &cp
		}
	}
	return byNode, deferred, nDeferred
}

// FormatAnalyze renders the executed plan tree, each node annotated
// with estimated vs. actual rows and cost, per-operator exclusive
// ("self") counters, and Open counts; operators whose estimate misses
// the measurement by more than the configured ratio are flagged. total
// is the execution's measured root counter; ops is the profile
// collected by the execution context.
func FormatAnalyze(root *Node, m cost.Model, ops []*exec.OpStats, total cost.Counter, opts AnalyzeOptions) string {
	if opts.ErrRatio <= 1 {
		opts.ErrRatio = 10
	}
	byNode, deferred, nDeferred := StatsByNode(root, ops)
	var b strings.Builder
	formatAnalyze(&b, root, m, byNode, opts, 0)
	if nDeferred > 0 {
		fmt.Fprintf(&b, "deferred sub-plan operators (planned at run time): %d, cost=%.2f %s\n",
			nDeferred, m.Total(deferred), deferred.String())
	}
	fmt.Fprintf(&b, "estimated cost: %.2f  (%s)\n", m.TotalEstimate(root.Est), root.Est.String())
	fmt.Fprintf(&b, "measured cost:  %.2f  (%s)\n", m.Total(total), total.String())
	return b.String()
}

func formatAnalyze(b *strings.Builder, n *Node, m cost.Model, byNode map[*Node]*exec.OpStats, opts AnalyzeOptions, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Kind)
	if n.Detail != "" {
		b.WriteString(" [")
		b.WriteString(n.Detail)
		b.WriteString("]")
	}
	ord := ""
	if s := DescribeOrdering(n.Ordering, n); s != "" {
		ord = fmt.Sprintf(", order=[%s]", s)
	}
	if n.BatchSize > 1 {
		ord += fmt.Sprintf(", batch=%d", n.BatchSize)
	}
	st := byNode[n]
	if st == nil || st.Opens == 0 {
		fmt.Fprintf(b, "  (est rows=%.0f, act rows=-, est cost=%.2f%s, not executed)",
			n.Rows, m.TotalEstimate(n.Est), ord)
	} else {
		perOpen := float64(st.Rows) / float64(st.Opens)
		fmt.Fprintf(b, "  (est rows=%.0f, act rows=%d", n.Rows, st.Rows)
		if st.Opens > 1 {
			fmt.Fprintf(b, " in %d opens", st.Opens)
		}
		fmt.Fprintf(b, ", est cost=%.2f, act cost=%.2f, self=%s",
			m.TotalEstimate(n.Est), m.Total(st.Inclusive), st.Self().String())
		if opts.ShowTime {
			fmt.Fprintf(b, ", time=%s", st.Wall.Round(time.Microsecond))
		}
		b.WriteString(ord)
		b.WriteString(")")
		if r, off := misestimate(n.Rows, perOpen, opts.ErrRatio); off {
			fmt.Fprintf(b, "  [rows misestimated x%.1f]", r)
		}
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		formatAnalyze(b, c, m, byNode, opts, depth+1)
	}
}

// misestimate reports the est/act cardinality ratio when it exceeds the
// threshold. Both sides are clamped to >= 1 before dividing: a zero or
// fractional estimate against a nonzero actual must neither blow the
// ratio up to Inf/NaN nor mute the flag — "estimated nothing, got n" is
// exactly an n-fold miss. The same rule gates the engine's statistics
// feedback, so the flag and the feedback agree on what a misestimate is.
func misestimate(est, act, ratio float64) (float64, bool) {
	return Misestimate(est, act, ratio)
}

// Misestimate is the shared misestimate rule: the est/act cardinality
// ratio, and whether it meets the threshold. Exported for the engine's
// adaptive feedback pass, which must agree with the EXPLAIN ANALYZE flag
// on what counts as a miss.
func Misestimate(est, act, ratio float64) (float64, bool) {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	lo, hi := est, act
	if lo > hi {
		lo, hi = hi, lo
	}
	r := hi / lo
	return r, r >= ratio
}
