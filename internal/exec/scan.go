package exec

import (
	"slices"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// TableScan is a full sequential scan of a stored table. It charges one
// page read each time the scan crosses onto a new page and one CPU tuple
// operation per row produced.
type TableScan struct {
	Table *storage.Table
	alias *schema.Schema // schema possibly re-qualified with an alias
	src   *storage.Table // Table, or what ctx.Bind put in its place; set at Open
	pos   int
}

// NewTableScan builds a scan. If alias is non-empty the output schema is
// re-qualified with it (FROM Emp E).
func NewTableScan(t *storage.Table, alias string) *TableScan {
	s := t.Schema()
	if alias != "" {
		s = s.Rename(alias)
	}
	return &TableScan{Table: t, alias: s}
}

// Schema implements Operator.
func (s *TableScan) Schema() *schema.Schema { return s.alias }

// Open implements Operator.
func (s *TableScan) Open(ctx *Context) error {
	s.src = ctx.resolve(s.Table)
	s.pos = 0
	return nil
}

// NextBatch implements Operator: the morsel is one slice append, and the
// pages it starts — the multiples of rows-per-page among the positions
// it covers — are counted arithmetically.
func (s *TableScan) NextBatch(ctx *Context, dst *Batch, max int) error {
	start, rpp := s.pos, s.src.RowsPerPage()
	ctx.Counter.CPUTuples += int64(dst.AppendFrom(s.src.Rows(), &s.pos, max-len(dst.Rows)))
	ctx.Counter.PageReads += int64(storage.PagesFor(s.pos, rpp) - storage.PagesFor(start, rpp))
	return nil
}

// Close implements Operator.
func (s *TableScan) Close(*Context) {}

// IndexLookup scans the rows of a table matching one key via a hash
// index. Each Open charges one page read for the index probe plus one
// page read per distinct data page holding matches (unclustered index
// model).
type IndexLookup struct {
	Table *storage.Table
	Index *storage.HashIndex
	Key   value.Row
	// KeyExprs, when set, compute the key at Open (constant-foldable
	// expressions only — typically bind parameters substituted from
	// ctx.Params), overriding Key. This is how a cached plan's index
	// probe follows the current parameter binding.
	KeyExprs []expr.Expr
	sch      *schema.Schema
	ids      []int
	pos      int
}

// NewIndexLookup builds an index lookup for a fixed key.
func NewIndexLookup(t *storage.Table, ix *storage.HashIndex, key value.Row, alias string) *IndexLookup {
	s := t.Schema()
	if alias != "" {
		s = s.Rename(alias)
	}
	return &IndexLookup{Table: t, Index: ix, Key: key, sch: s}
}

// NewIndexLookupExprs builds an index lookup whose key is computed at
// Open from constant expressions (literals or bind parameters).
func NewIndexLookupExprs(t *storage.Table, ix *storage.HashIndex, keyExprs []expr.Expr, alias string) *IndexLookup {
	s := t.Schema()
	if alias != "" {
		s = s.Rename(alias)
	}
	return &IndexLookup{Table: t, Index: ix, KeyExprs: keyExprs, sch: s}
}

// Schema implements Operator.
func (l *IndexLookup) Schema() *schema.Schema { return l.sch }

// Open implements Operator.
func (l *IndexLookup) Open(ctx *Context) error {
	key := l.Key
	if len(l.KeyExprs) > 0 {
		key = make(value.Row, len(l.KeyExprs))
		for i, e := range expr.BindParamsList(l.KeyExprs, ctx.Params) {
			v, err := e.Eval(nil)
			if err != nil {
				return err
			}
			key[i] = v
		}
	}
	l.ids, l.pos = nil, 0
	if slices.ContainsFunc(key, value.Value.IsNull) {
		return nil // a NULL key matches nothing: no probe
	}
	ctx.Counter.PageReads++ // index probe
	l.ids = l.Index.Lookup(key)
	ctx.Counter.PageReads += int64(storage.ProbePages(l.ids, l.Table.RowsPerPage()))
	return nil
}

// NextBatch implements Operator. The page reads were charged by the
// probe in Open; emission charges one CPU operation per row.
func (l *IndexLookup) NextBatch(ctx *Context, dst *Batch, max int) error {
	n := min(max, len(l.ids)-l.pos)
	if n <= 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		dst.Rows = append(dst.Rows, l.Table.Row(l.ids[l.pos]))
		l.pos++
	}
	ctx.Counter.CPUTuples += int64(n)
	return nil
}

// Close implements Operator.
func (l *IndexLookup) Close(*Context) {}
