// Package plan defines the physical plan node the optimizer produces:
// an annotated tree carrying estimated resource consumption, estimated
// output cardinality and statistics, the output schema, a mapping from
// the query block's global column layout to the node's output positions,
// and a factory that builds a fresh executable operator tree.
package plan

import (
	"fmt"
	"strings"

	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
)

// Node is one physical plan node. Children are for display/explanation;
// the executable form is produced by Make, which must return a fresh
// operator tree on every call (so nested-loops re-execution and repeated
// runs are independent).
type Node struct {
	Kind     string // operator kind, e.g. "HashJoin", "FilterJoin"
	Detail   string // human-readable specifics (keys, predicates, choices)
	Children []*Node

	Est       cost.Estimate   // cumulative estimated resources for one execution
	Rows      float64         // estimated output cardinality
	Stats     *stats.RelStats // output statistics, aligned with OutSchema
	OutSchema *schema.Schema
	ColMap    []int        // block layout column -> output position, -1 if absent
	Rels      query.RelSet // block relations this plan covers

	// Ordering is the physical sort order the node's output is known to
	// carry (nil when unordered). Operators that stream their outer input
	// preserve it; sorts and merge joins produce it; hash aggregation
	// destroys it. The optimizer's property-aware memo keys plans by it.
	Ordering Ordering

	// BatchSize, set on a root node, is the morsel size the executor
	// pulls through the plan (0 counts as 1).
	BatchSize int

	Make func() exec.Operator

	// Fallback, when set on a root node, is a complete alternative plan
	// for the same block that avoids per-row remote strategies
	// (fetch-matches). The executor degrades to it when the primary plan
	// aborts mid-query with a dist.SiteError after the transport's retry
	// budget is exhausted. It is a sibling tree, not a child: Walk and
	// Format do not descend into it.
	Fallback *Node

	// Source/SourcePred/SourceRows carry feedback provenance on leaf
	// access nodes (DESIGN.md §12): the stored relation the node scans,
	// the relation-local predicate it applies (nil for a full scan), and
	// the relation's raw cardinality at plan time. The adaptive layer
	// divides the node's measured output rows by SourceRows to obtain
	// the predicate's observed selectivity and feeds it back into the
	// relation's statistics. Empty/nil on derived and interior nodes.
	Source     string
	SourcePred expr.Expr
	SourceRows float64

	Extra any // method-specific annotation (e.g. Filter Join cost breakdown)
}

// Total returns the node's scalar cost under model m.
func (n *Node) Total(m cost.Model) float64 { return m.TotalEstimate(n.Est) }

// Format renders the plan tree, one node per line, with cardinality and
// cost annotations.
func Format(n *Node, m cost.Model) string {
	var b strings.Builder
	format(&b, n, m, 0)
	return b.String()
}

func format(b *strings.Builder, n *Node, m cost.Model, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Kind)
	if n.Detail != "" {
		b.WriteString(" [")
		b.WriteString(n.Detail)
		b.WriteString("]")
	}
	fmt.Fprintf(b, "  (rows=%.0f cost=%.2f", n.Rows, n.Total(m))
	if s := DescribeOrdering(n.Ordering, n); s != "" {
		fmt.Fprintf(b, " order=[%s]", s)
	}
	if n.BatchSize > 1 {
		fmt.Fprintf(b, " batch=%d", n.BatchSize)
	}
	b.WriteString(")\n")
	for _, c := range n.Children {
		format(b, c, m, depth+1)
	}
}

// Walk visits n and every descendant in preorder.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Find returns the first node (preorder) of the given kind, or nil.
func (n *Node) Find(kind string) *Node {
	var out *Node
	n.Walk(func(m *Node) {
		if out == nil && m.Kind == kind {
			out = m
		}
	})
	return out
}

// IdentityColMap returns the map [0..n) -> [0..n).
func IdentityColMap(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// EmptyColMap returns a map of width n with every entry -1.
func EmptyColMap(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// MergeColMaps combines an outer and inner column map for a join whose
// output is outer columns followed by inner columns. Width is the block
// layout width; innerOffset is the number of outer output columns.
func MergeColMaps(outer, inner []int, innerOffset int) []int {
	out := make([]int, len(outer))
	for i := range out {
		switch {
		case outer[i] >= 0:
			out[i] = outer[i]
		case inner[i] >= 0:
			out[i] = inner[i] + innerOffset
		default:
			out[i] = -1
		}
	}
	return out
}
