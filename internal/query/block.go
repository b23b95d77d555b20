// Package query defines the logical query block the optimizer works on:
// a set of relation references (FROM), conjunctive predicates (WHERE)
// expressed over the block's global column layout, and an output shape
// (projection, or grouping plus aggregates, optionally DISTINCT).
//
// A view definition is itself a Block; nesting views inside blocks is how
// the paper's "virtual relations" arise for table expressions.
package query

import (
	"fmt"
	"strings"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// RelRef names one relation in a block's FROM list.
type RelRef struct {
	Name  string // catalog name
	Alias string // binding alias within the block; defaults to Name
}

// Binding returns the alias if set, else the name.
func (r RelRef) Binding() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Name
}

// Output is one projected output column.
type Output struct {
	Expr expr.Expr // over the block layout
	Name string
}

// Block is a single select-project-join-aggregate query block.
//
// Column references inside Preds, Proj and Aggs are positions in the
// block layout: the concatenation of the relations' schemas in Rels
// order. When aggregation is present (len(GroupBy)+len(Aggs) > 0), the
// block's output is the GroupBy columns in order followed by the
// aggregate results, and Proj must be nil.
type Block struct {
	Rels     []RelRef
	Preds    []expr.Expr
	Proj     []Output
	GroupBy  []int
	Aggs     []expr.AggSpec
	Distinct bool

	// Having filters aggregation results; it is bound against the
	// block's OUTPUT layout (group columns followed by aggregates), not
	// the relation layout. Only valid when HasAggregation().
	Having expr.Expr
	// OrderBy sorts the final output; positions index the output layout.
	OrderBy []OrderItem
	// Limit truncates the output when > 0.
	Limit int
}

// OrderItem is one ORDER BY key over the block's output columns.
type OrderItem struct {
	Col  int // output position
	Desc bool
}

// Clone deep-copies the block's slices (expressions are immutable and
// shared).
func (b *Block) Clone() *Block {
	out := &Block{Distinct: b.Distinct, Having: b.Having, Limit: b.Limit}
	out.Rels = append([]RelRef(nil), b.Rels...)
	out.Preds = append([]expr.Expr(nil), b.Preds...)
	out.Proj = append([]Output(nil), b.Proj...)
	out.GroupBy = append([]int(nil), b.GroupBy...)
	out.Aggs = append([]expr.AggSpec(nil), b.Aggs...)
	out.OrderBy = append([]OrderItem(nil), b.OrderBy...)
	return out
}

// HasAggregation reports whether the block groups/aggregates.
func (b *Block) HasAggregation() bool {
	return len(b.GroupBy) > 0 || len(b.Aggs) > 0
}

// SchemaResolver resolves a relation name to its schema; the catalog
// implements it.
type SchemaResolver interface {
	RelationSchema(name string) (*schema.Schema, error)
}

// Layout is the resolved global column layout of a block.
type Layout struct {
	Schema  *schema.Schema // concatenated, alias-qualified
	Offsets []int          // start offset of relation i's columns
	Widths  []int          // column count of relation i
}

// Layout resolves the block's relations and computes the global layout
// in one pass: each relation's columns, re-qualified with its binding,
// are appended to one column list.
func (b *Block) Layout(r SchemaResolver) (*Layout, error) {
	n := len(b.Rels)
	ow := make([]int, 2*n)
	l := &Layout{Offsets: ow[:n:n], Widths: ow[n:]}
	cols := make([]schema.Column, 0, 8*n)
	for i, ref := range b.Rels {
		s, err := r.RelationSchema(ref.Name)
		if err != nil {
			return nil, fmt.Errorf("query: resolving %q: %w", ref.Name, err)
		}
		l.Offsets[i], l.Widths[i] = len(cols), s.Len()
		for j := range s.Len() {
			c := s.Col(j)
			c.Table = ref.Binding()
			cols = append(cols, c)
		}
	}
	l.Schema = schema.New(cols...)
	return l, nil
}

// RelOfCol returns the index of the relation owning global column c, or
// -1 when out of range.
func (l *Layout) RelOfCol(c int) int {
	for i := range l.Offsets {
		if c >= l.Offsets[i] && c < l.Offsets[i]+l.Widths[i] {
			return i
		}
	}
	return -1
}

// RelSet is a bitset of relation ordinals within one block.
type RelSet uint64

// NewRelSet builds a set from ordinals.
func NewRelSet(rels ...int) RelSet {
	var s RelSet
	for _, r := range rels {
		s |= 1 << uint(r)
	}
	return s
}

// Has reports membership.
func (s RelSet) Has(r int) bool { return s&(1<<uint(r)) != 0 }

// With returns s ∪ {r}.
func (s RelSet) With(r int) RelSet { return s | 1<<uint(r) }

// Union returns s ∪ t.
func (s RelSet) Union(t RelSet) RelSet { return s | t }

// SubsetOf reports s ⊆ t.
func (s RelSet) SubsetOf(t RelSet) bool { return s&^t == 0 }

// Count returns the cardinality of the set.
func (s RelSet) Count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// Members lists the ordinals in the set.
func (s RelSet) Members() []int {
	var out []int
	for i := 0; i < 64; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// PredRels computes the set of relations a predicate references, given
// the block layout.
func PredRels(p expr.Expr, l *Layout) RelSet {
	cols := map[int]bool{}
	expr.CollectCols(p, cols)
	var s RelSet
	for c := range cols {
		if r := l.RelOfCol(c); r >= 0 {
			s = s.With(r)
		}
	}
	return s
}

// OutputWidth returns the number of output columns given the block layout
// width (for the Proj==nil identity case).
func (b *Block) OutputWidth(layoutWidth int) int {
	if b.HasAggregation() {
		return len(b.GroupBy) + len(b.Aggs)
	}
	if b.Proj != nil {
		return len(b.Proj)
	}
	return layoutWidth
}

// OutputProvenance maps each output column of the block to the global
// layout column it is a direct copy of, or -1 when it is computed (an
// aggregate or a non-column expression). The Filter Join uses provenance
// to decide which view output columns can legally receive filter-set
// bindings (only columns that flow unchanged from the view body).
func (b *Block) OutputProvenance(layoutWidth int) []int {
	if b.HasAggregation() {
		out := make([]int, 0, len(b.GroupBy)+len(b.Aggs))
		out = append(out, b.GroupBy...)
		for range b.Aggs {
			out = append(out, -1)
		}
		return out
	}
	if b.Proj != nil {
		out := make([]int, len(b.Proj))
		for i, p := range b.Proj {
			if c, ok := p.Expr.(expr.Col); ok {
				out[i] = c.Idx
			} else {
				out[i] = -1
			}
		}
		return out
	}
	out := make([]int, layoutWidth)
	for i := range out {
		out[i] = i
	}
	return out
}

// OutputSchema computes the block's output schema (what a view of this
// block exposes), qualified with viewName.
func (b *Block) OutputSchema(r SchemaResolver, viewName string) (*schema.Schema, error) {
	l, err := b.Layout(r)
	if err != nil {
		return nil, err
	}
	var cols []schema.Column
	if b.HasAggregation() {
		for _, g := range b.GroupBy {
			c := l.Schema.Col(g)
			cols = append(cols, schema.Column{Table: viewName, Name: c.Name, Type: c.Type})
		}
		for _, a := range b.Aggs {
			name := a.Name
			if name == "" {
				name = a.String()
			}
			cols = append(cols, schema.Column{Table: viewName, Name: name, Type: a.ResultType()})
		}
	} else if b.Proj != nil {
		for _, p := range b.Proj {
			name := p.Name
			typ := exprType(p.Expr, l.Schema)
			if name == "" {
				if c, ok := p.Expr.(expr.Col); ok {
					name = l.Schema.Col(c.Idx).Name
				} else {
					name = p.Expr.String()
				}
			}
			cols = append(cols, schema.Column{Table: viewName, Name: name, Type: typ})
		}
	} else {
		for _, c := range l.Schema.Columns() {
			cols = append(cols, schema.Column{Table: viewName, Name: c.Name, Type: c.Type})
		}
	}
	return schema.New(cols...), nil
}

func exprType(e expr.Expr, s *schema.Schema) value.Kind {
	switch p := e.(type) {
	case expr.Col:
		if p.Idx >= 0 && p.Idx < s.Len() {
			return s.Col(p.Idx).Type
		}
	case expr.Lit:
		return p.V.Kind()
	case expr.Param:
		return p.V.Kind()
	case expr.Arith:
		return exprType(p.L, s)
	case expr.Cmp, expr.And, expr.Or, expr.Not:
		return value.KindBool
	}
	return 0
}

// String renders the block for debugging.
func (b *Block) String() string {
	var sb strings.Builder
	sb.WriteString("FROM ")
	for i, r := range b.Rels {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(r.Name)
		if r.Alias != "" && r.Alias != r.Name {
			sb.WriteString(" ")
			sb.WriteString(r.Alias)
		}
	}
	if len(b.Preds) > 0 {
		sb.WriteString(" WHERE ")
		for i, p := range b.Preds {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(p.String())
		}
	}
	if len(b.GroupBy) > 0 {
		sb.WriteString(fmt.Sprintf(" GROUP BY %v", b.GroupBy))
	}
	return sb.String()
}
