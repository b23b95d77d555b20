package value

// RowArena carves output rows out of Value slabs so operators that
// materialize rows (Project outputs, join survivors, filter-set keys)
// pay one allocation per slab instead of one per row. Rows handed out
// are full-capacity-sliced, so a consumer appending to one cannot tromp
// on its neighbors.
//
// Slabs are answer-sized: the first holds arenaFirstSlab values (or what
// Reserve was told the plan expects) and each later one doubles, up to
// arenaMaxSlab — a 30-row answer pays for 30 rows, a long scan
// amortizes exactly as a fixed large slab would.
//
// The arena never reuses a slab: rows flow downstream and may be
// retained (Drain keeps row headers past Reset), so slabs stay reachable
// exactly as long as some emitted row references them.
type RowArena struct {
	chunk []Value
	next  int // capacity of the next slab; 0 means arenaFirstSlab
}

const (
	arenaFirstSlab = 64
	arenaMaxSlab   = 4096
)

// Reserve raises the next slab's size to hold about n values, within
// the first and maximum slab sizes. Its one caller is the filter-set
// build, with the optimizer's |F|; join and projection arenas grow from
// the first slab, because a build-side estimate says little about how
// many rows a join emits.
func (a *RowArena) Reserve(n int) {
	a.next = max(a.next, min(n, arenaMaxSlab))
}

// Make returns a zeroed row of n values carved from the current slab. A
// row the slab's remainder cannot hold opens the next slab, doubled
// until the row fits, so what the old slab orphans is less than the row
// the new one starts with. A row wider than any slab is allocated on
// its own and leaves the live slab to the rows that follow.
func (a *RowArena) Make(n int) Row {
	if n == 0 {
		return Row{}
	}
	if cap(a.chunk)-len(a.chunk) < n {
		if n > arenaMaxSlab {
			return make(Row, n)
		}
		size := max(a.next, arenaFirstSlab)
		for size < n {
			size *= 2
		}
		size = min(size, arenaMaxSlab)
		a.next = min(2*size, arenaMaxSlab)
		a.chunk = make([]Value, 0, size)
	}
	s := len(a.chunk)
	a.chunk = a.chunk[:s+n]
	return Row(a.chunk[s : s+n : s+n])
}

// Concat returns l followed by r as an arena-backed row, the arena form
// of Row.Concat.
func (a *RowArena) Concat(l, r Row) Row {
	out := a.Make(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// Project returns r's values at idx as an arena-backed row, the arena
// form of Row.Project.
func (a *RowArena) Project(r Row, idx []int) Row {
	out := a.Make(len(idx))
	for i, j := range idx {
		out[i] = r[j]
	}
	return out
}
