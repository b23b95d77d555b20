package exec

import "filterjoin/internal/value"

// RowTable is the key table of every hash operator (DESIGN.md §11): an
// open-addressing table over value.HashBytes of key encodings
// (value.Row.AppendKey), with the key bytes themselves packed into one
// arena and verified in full on every hash hit — so two rows share an id
// exactly when value.Compare finds their key columns equal.
// Values never live in the table: it assigns each distinct key a dense
// id (0, 1, 2, …) in first-insertion order, and operators index their
// own payload slices (bucket chains, group states) by that id.
//
// Init pre-sizes from the optimizer's cardinality hint, the key arena
// at the first key's length (up to 32 bytes) per hinted key; Grows
// counts doublings after that, which the pre-sizing regression test
// pins to zero on hinted builds.
type RowTable struct {
	slots []rtSlot
	mask  uint64
	arena []byte
	spans []rtSpan
	grows int
	hint  int
	from  *Store // where storage is drawn from and given back to; nil allocates
}

type rtSlot struct {
	hash uint64
	id   int32 // 0 = empty, else key id + 1
}

type rtSpan struct{ off, end uint32 }

// rtMaxLoad is the occupancy numerator/denominator: grow when
// n+1 > 3/4 of capacity.
const rtMaxLoadNum, rtMaxLoadDen = 3, 4

func rtCapFor(hint int) int {
	c := 8
	for hint > 0 && c*rtMaxLoadNum < hint*rtMaxLoadDen {
		c <<= 1
	}
	return c
}

// Init empties the table and pre-sizes it so hint insertions need no
// growth. Storage is kept across Init cycles, so a re-Opened operator
// rebuilds without reallocating.
func (t *RowTable) Init(hint int) {
	need := rtCapFor(hint)
	if cap(t.slots) >= need {
		t.slots = t.slots[:max(len(t.slots), need)]
		clear(t.slots)
	} else {
		t.slots = t.newSlots(need)
	}
	t.mask = uint64(len(t.slots) - 1)
	t.arena = t.arena[:0]
	if cap(t.spans) < hint {
		t.from.giveSpans(t.spans)
		if t.spans = t.from.takeSpans(hint); t.spans == nil {
			t.spans = make([]rtSpan, 0, hint)
		}
	}
	t.spans = t.spans[:0]
	t.grows = 0
	t.hint = hint
}

// initFrom is Init drawing storage from s (nil: allocating), which
// release gives it back to.
func (t *RowTable) initFrom(s *Store, hint int) {
	t.from = s
	t.Init(hint)
}

// newSlots returns n (a power of two) empty slots, replacing the
// table's own, which go back to the store.
func (t *RowTable) newSlots(n int) []rtSlot {
	t.from.giveSlots(t.slots)
	if s := t.from.takeSlots(n); s != nil {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]rtSlot, n)
}

// release gives the table's storage back to its store and empties it;
// without a store the table keeps its storage for the next Init.
func (t *RowTable) release() {
	if t.from == nil {
		return
	}
	t.from.giveSlots(t.slots)
	t.from.giveSpans(t.spans)
	t.from.giveKeys(t.arena)
	*t = RowTable{from: t.from}
}

// Len returns the number of distinct keys inserted.
func (t *RowTable) Len() int { return len(t.spans) }

// Grows returns the number of capacity doublings since Init.
func (t *RowTable) Grows() int { return t.grows }

// Key returns the stored key bytes for id, valid until the next Init.
func (t *RowTable) Key(id int32) []byte {
	s := t.spans[id]
	return t.arena[s.off:s.end]
}

func (t *RowTable) keyEq(id int32, key []byte) bool {
	s := t.spans[id]
	stored := t.arena[s.off:s.end]
	if len(stored) != len(key) {
		return false
	}
	for i, b := range key {
		if stored[i] != b {
			return false
		}
	}
	return true
}

// Insert adds key if absent and returns its dense id plus whether it was
// newly added. The key bytes are copied into the arena; callers reuse
// their scratch buffer immediately.
func (t *RowTable) Insert(key []byte) (id int32, added bool) {
	if len(t.slots) == 0 {
		t.Init(0)
	}
	if (len(t.spans)+1)*rtMaxLoadDen > len(t.slots)*rtMaxLoadNum {
		t.grow()
	}
	h := value.HashBytes(key)
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.id == 0 {
			// The first key sizes the key arena: about what the slots take.
			if n := t.hint * min(len(key), 32); len(t.arena) == 0 && cap(t.arena) < n {
				t.from.giveKeys(t.arena)
				if t.arena = t.from.takeKeys(n); t.arena == nil {
					t.arena = make([]byte, 0, n)
				}
			}
			off := len(t.arena)
			t.arena = append(t.arena, key...)
			t.spans = append(t.spans, rtSpan{off: uint32(off), end: uint32(len(t.arena))})
			s.hash = h
			s.id = int32(len(t.spans))
			return s.id - 1, true
		}
		if s.hash == h && t.keyEq(s.id-1, key) {
			return s.id - 1, false
		}
		i = (i + 1) & t.mask
	}
}

// Lookup returns the id for key, or -1 when absent.
func (t *RowTable) Lookup(key []byte) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	h := value.HashBytes(key)
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.id == 0 {
			return -1
		}
		if s.hash == h && t.keyEq(s.id-1, key) {
			return s.id - 1
		}
		i = (i + 1) & t.mask
	}
}

func (t *RowTable) grow() {
	old := t.slots
	t.slots = nil // newSlots must not give old back before it is rehashed
	t.slots = t.newSlots(2 * len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.grows++
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := s.hash & t.mask
		for t.slots[i].id != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
	t.from.giveSlots(old)
}

// joinTable is a hash join's build side, and the one place its format is
// decided: a RowTable over the build rows' key encodings plus one chain
// per distinct key threaded through the rows in build order (heads and
// tails index by key id, next by row position), so a probe walks a key's
// build rows in insertion order. Each HashJoin owns one; storage is
// kept across builds for re-Opened joins.
type joinTable struct {
	ht                RowTable
	rows              []value.Row
	heads, tails, nxt []int32
	keyBuf            []byte
}

// build indexes rows on the keys columns, pre-sized for hint distinct
// keys (never more than the rows), its storage drawn from s. A row with
// a NULL key joins nothing and enters no chain.
func (t *joinTable) build(s *Store, rows []value.Row, keys []int, hint int) {
	t.rows = rows
	t.ht.initFrom(s, hint)
	distinct := min(hint, len(rows))
	t.heads = s.ints(t.heads, distinct)
	t.tails = s.ints(t.tails, distinct)
	t.nxt = s.ints(t.nxt, len(rows))
	for i, r := range rows {
		t.nxt = append(t.nxt, -1)
		if nullKey(r, keys) {
			continue
		}
		t.keyBuf = r.AppendKey(t.keyBuf[:0], keys)
		id, added := t.ht.Insert(t.keyBuf)
		if added {
			t.heads = append(t.heads, int32(i))
			t.tails = append(t.tails, int32(i))
		} else {
			t.nxt[t.tails[id]] = int32(i)
			t.tails[id] = int32(i)
		}
	}
}

// release gives the build's rows slice and storage back to the store
// the last build drew from; a second release gives nothing. Without a
// store only the rows are dropped.
func (t *joinTable) release() {
	if s := t.ht.from; s != nil {
		s.giveRows(t.rows)
		s.giveInts(t.heads)
		s.giveInts(t.tails)
		s.giveInts(t.nxt)
		t.heads, t.tails, t.nxt = nil, nil, nil
		t.ht.release()
	}
	t.rows = nil
}

// probe returns the chain cursor of the first build row whose key equals
// r's keys columns, or -1 when there is none (always for a NULL key).
func (t *joinTable) probe(r value.Row, keys []int) int32 {
	if nullKey(r, keys) {
		return -1
	}
	t.keyBuf = r.AppendKey(t.keyBuf[:0], keys)
	if id := t.ht.Lookup(t.keyBuf); id >= 0 {
		return t.heads[id]
	}
	return -1
}

// pop returns the build row at cursor c and the cursor of the next row
// in its chain (-1 at the end).
func (t *joinTable) pop(c int32) (value.Row, int32) { return t.rows[c], t.nxt[c] }

// nullKey reports whether any of r's keys columns is NULL. SQL's = is
// never true on NULL, so every equi-join and filter set skips such a
// row; grouping and DISTINCT, which keep NULLs together, do not ask.
func nullKey(r value.Row, keys []int) bool {
	for _, k := range keys {
		if r[k].IsNull() {
			return true
		}
	}
	return false
}
