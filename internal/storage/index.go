package storage

import (
	"filterjoin/internal/value"
)

// HashIndex is an equality index over one or more columns of a table.
// Probes return row ids; the cost of fetching the matching rows is charged
// by the executor using the distinct pages those rows live on, which
// models an unclustered secondary index.
type HashIndex struct {
	name    string
	cols    []int
	buckets map[string][]int
}

func newHashIndex(name string, cols []int) *HashIndex {
	c := make([]int, len(cols))
	copy(c, cols)
	return &HashIndex{name: name, cols: c, buckets: map[string][]int{}}
}

// Name returns the index name.
func (ix *HashIndex) Name() string { return ix.name }

// Cols returns the key column indexes (do not mutate).
func (ix *HashIndex) Cols() []int { return ix.cols }

func (ix *HashIndex) add(rowID int, r value.Row) {
	var buf [64]byte
	k := r.AppendKey(buf[:0], ix.cols)
	ix.buckets[string(k)] = append(ix.buckets[string(k)], rowID)
}

func (ix *HashIndex) clear() { ix.buckets = map[string][]int{} }

// Lookup returns the ids of rows whose key columns equal key (a row whose
// width equals len(Cols())).
func (ix *HashIndex) Lookup(key value.Row) []int {
	var buf [64]byte // keys of a few numeric columns encode on the stack
	return ix.buckets[string(key.AppendFullKey(buf[:0]))]
}

// LookupRow probes with the key extracted from a full-width row of the
// indexed table's schema (or any row where keyIdx locates the key values).
func (ix *HashIndex) LookupRow(r value.Row, keyIdx []int) []int {
	var buf [64]byte // keys of a few numeric columns encode on the stack
	return ix.buckets[string(r.AppendKey(buf[:0], keyIdx))]
}

// DistinctKeys returns the number of distinct keys in the index.
func (ix *HashIndex) DistinctKeys() int { return len(ix.buckets) }

// ProbePages returns how many distinct data pages the given row ids touch,
// given the table's page geometry; this is what the executor charges for
// fetching the matches of one probe.
func ProbePages(rowIDs []int, rowsPerPage int) int {
	if len(rowIDs) == 0 {
		return 0
	}
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	// An index bucket lists row ids in insertion order, so its pages
	// ascend and distinct pages are page changes; anything else is
	// counted through a set.
	pages, last := 0, -1
	for _, id := range rowIDs {
		switch pg := id / rowsPerPage; {
		case pg > last:
			pages++
			last = pg
		case pg < last:
			seen := map[int]bool{}
			for _, id := range rowIDs {
				seen[id/rowsPerPage] = true
			}
			return len(seen)
		}
	}
	return pages
}
