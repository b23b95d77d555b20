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
// Until its owner calls Recycle the arena never reuses a slab: rows flow
// downstream and may be retained (Drain keeps row headers past Reset),
// so slabs stay reachable exactly as long as some emitted row
// references them. An operator whose consumer borrows its output
// (exec.Batch.Borrow) calls Recycle before each pull it answers: every
// row it carved is dead by then, so the arena carves the next rows from
// the same slabs again, and a steady-state pipeline allocates nothing.
// Such an arena also draws its slabs from the SlabStore its owner names
// at Recycle, and gives them back at Release: the slabs then outlive the
// operator, and the next execution carves from them too.
type RowArena struct {
	chunk []Value
	next  int // capacity of the next slab; 0 means arenaFirstSlab
	// From the first Recycle on (keep), the arena keeps the slabs it
	// carves, in carving order: first inline, so a one-slab answer
	// recycles without allocating, the rest in more. reuse counts the
	// kept slabs carved since the last Recycle.
	keep  bool
	first []Value
	more  [][]Value
	reuse int
	from  SlabStore // where a recycling arena draws slabs; nil allocates
}

// SlabStore lends arenas the slabs they recycle and takes them back
// (exec.Store is the one implementation).
type SlabStore interface {
	// TakeSlab returns an empty slab that holds at least n values, or
	// nil when there is none to lend.
	TakeSlab(n int) []Value
	// GiveSlab takes back a slab no live row references.
	GiveSlab([]Value)
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
// row the slab's remainder cannot hold moves on to the next kept slab
// (nextSlab), else opens a new one doubled until the row fits, so what
// the old slab orphans is less than the row the new one starts with. A row wider than any slab is allocated on
// its own and leaves the live slab to the rows that follow.
func (a *RowArena) Make(n int) Row {
	if n == 0 {
		return Row{}
	}
	if cap(a.chunk)-len(a.chunk) < n {
		if n > arenaMaxSlab {
			return make(Row, n)
		}
		a.chunk = a.nextSlab(n)
	}
	s := len(a.chunk)
	a.chunk = a.chunk[:s+n]
	out := Row(a.chunk[s : s+n : s+n])
	if a.keep {
		clear(out) // a recycled slab still holds the rows of the last pull
	}
	return out
}

// kept returns the number of slabs the arena keeps for recycling.
func (a *RowArena) kept() int {
	if a.first == nil {
		return 0
	}
	return 1 + len(a.more)
}

// nextSlab returns an empty slab that holds at least n values: the next
// kept one that is large enough, else a new one on the doubling
// schedule.
func (a *RowArena) nextSlab(n int) []Value {
	for a.reuse < a.kept() {
		s := a.first
		if a.reuse > 0 {
			s = a.more[a.reuse-1]
		}
		a.reuse++
		if cap(s) >= n {
			return s[:0]
		}
	}
	size := max(a.next, arenaFirstSlab)
	for size < n {
		size *= 2
	}
	size = min(size, arenaMaxSlab)
	var s []Value
	if a.from != nil {
		s = a.from.TakeSlab(size)
	}
	if s == nil {
		s = make([]Value, 0, size)
	}
	a.next = min(2*cap(s), arenaMaxSlab)
	if a.keep {
		if a.first == nil {
			a.first = s
		} else {
			a.more = append(a.more, s)
		}
		a.reuse = a.kept()
	}
	return s
}

// Recycle declares every row the arena has carved dead and rewinds it
// onto the slabs it keeps: the rows that follow reuse them, and only a
// pull larger than any before it opens a new slab. The first Recycle
// keeps the live slab, if any; slabs filled before it are left to the
// garbage collector. From then on the arena draws new slabs from from,
// if it is not nil, and Release gives every kept slab back to it.
func (a *RowArena) Recycle(from SlabStore) {
	a.from = from
	if !a.keep {
		a.keep = true
		a.first = a.chunk
	}
	a.chunk, a.reuse = nil, 0
}

// Release gives the slabs a recycling arena keeps back to the store it
// drew them from and empties the arena; its owner calls it at Close,
// when no row it carved is live any more. An arena that never recycled,
// or has no store, keeps its slabs: its rows may outlive the operator.
// A second Release gives nothing.
func (a *RowArena) Release() {
	if !a.keep || a.from == nil {
		return
	}
	if a.first != nil {
		a.from.GiveSlab(a.first)
	}
	for _, s := range a.more {
		a.from.GiveSlab(s)
	}
	*a = RowArena{keep: true, from: a.from}
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
