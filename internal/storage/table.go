// Package storage implements in-memory heap tables with deterministic
// page accounting, plus hash indexes. Tables do not charge costs
// themselves; the execution operators charge page reads/writes against a
// cost.Counter using the page geometry the table exposes. This makes the
// simulated I/O model auditable: a full scan of a table with P pages
// always charges exactly P page reads.
package storage

import (
	"fmt"

	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Table is a heap file: an ordered bag of rows with page geometry.
type Table struct {
	name        string
	schema      *schema.Schema
	rows        []value.Row
	rowsPerPage int
	indexes     map[string]*HashIndex
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, s *schema.Schema) *Table {
	rpp := PageSize / s.RowWidth()
	if rpp < 1 {
		rpp = 1
	}
	return &Table{
		name:        name,
		schema:      s,
		rowsPerPage: rpp,
		indexes:     map[string]*HashIndex{},
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// RowsPerPage returns how many rows fit on one simulated page.
func (t *Table) RowsPerPage() int { return t.rowsPerPage }

// NumRows returns the table cardinality.
func (t *Table) NumRows() int { return len(t.rows) }

// NumPages returns the number of pages the table occupies.
func (t *Table) NumPages() int {
	return PagesFor(len(t.rows), t.rowsPerPage)
}

// PagesFor returns ceil(rows / rowsPerPage), with a minimum of 0 pages for
// an empty relation and 1 page otherwise.
func PagesFor(rows, rowsPerPage int) int {
	if rows <= 0 {
		return 0
	}
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	return (rows + rowsPerPage - 1) / rowsPerPage
}

// Insert appends a row. The row must match the schema width; column types
// are checked loosely (NULL is allowed anywhere, ints are accepted where
// floats are declared).
func (t *Table) Insert(r value.Row) error {
	if len(r) != t.schema.Len() {
		return fmt.Errorf("storage: table %s expects %d columns, got %d", t.name, t.schema.Len(), len(r))
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		want := t.schema.Col(i).Type
		got := v.Kind()
		if got == want {
			continue
		}
		if want == value.KindFloat && got == value.KindInt {
			continue
		}
		return fmt.Errorf("storage: table %s column %s expects %s, got %s",
			t.name, t.schema.Col(i).QualifiedName(), want, got)
	}
	t.rows = append(t.rows, r)
	for _, ix := range t.indexes {
		ix.add(len(t.rows)-1, r)
	}
	return nil
}

// MustInsert inserts and panics on schema mismatch; for fixtures.
func (t *Table) MustInsert(vals ...value.Value) {
	if err := t.Insert(value.Row(vals)); err != nil {
		panic(err)
	}
}

// InsertAll inserts each row, stopping at the first error.
func (t *Table) InsertAll(rows []value.Row) error {
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Row returns the i-th row. The caller must not mutate it.
func (t *Table) Row(i int) value.Row { return t.rows[i] }

// Rows returns the backing row slice. The caller must not mutate it.
func (t *Table) Rows() []value.Row { return t.rows }

// PageOfRow returns the page number that holds row i.
func (t *Table) PageOfRow(i int) int { return i / t.rowsPerPage }

// Truncate removes all rows (indexes are cleared too) and lets go of
// their backing array, so an emptied table pins none of what it held.
func (t *Table) Truncate() {
	t.rows = nil
	for _, ix := range t.indexes {
		ix.clear()
	}
}

// CreateIndex builds (or rebuilds) a hash index over the given columns.
// The index is named and retrievable by that name.
func (t *Table) CreateIndex(name string, cols []int) (*HashIndex, error) {
	for _, c := range cols {
		if c < 0 || c >= t.schema.Len() {
			return nil, fmt.Errorf("storage: index %s on %s references column %d out of range", name, t.name, c)
		}
	}
	ix := newHashIndex(name, cols)
	for i, r := range t.rows {
		ix.add(i, r)
	}
	t.indexes[name] = ix
	return ix, nil
}

// Index returns the named index, or nil.
func (t *Table) Index(name string) *HashIndex { return t.indexes[name] }

// IndexOn returns any index whose key columns exactly cover cols (order
// insensitive), or nil.
func (t *Table) IndexOn(cols []int) *HashIndex {
	for _, ix := range t.indexes {
		if sameColSet(ix.cols, cols) {
			return ix
		}
	}
	return nil
}

// Indexes returns all indexes on the table.
func (t *Table) Indexes() []*HashIndex {
	out := make([]*HashIndex, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, ix)
	}
	return out
}

func sameColSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[int]bool{}
	for _, c := range a {
		seen[c] = true
	}
	for _, c := range b {
		if !seen[c] {
			return false
		}
	}
	return true
}

// FromRows builds a table directly from a schema and pre-validated rows;
// used to materialize intermediate results.
func FromRows(name string, s *schema.Schema, rows []value.Row) *Table {
	t := NewTable(name, s)
	t.rows = rows
	return t
}
