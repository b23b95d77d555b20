package exec

import (
	"math/bits"
	"sync"

	"filterjoin/internal/value"
)

// Store keeps executor scratch from one execution for the next: the
// slabs of recycling row arenas, morsel carriers, the build-row slices
// and RowTable/joinTable storage of hash operators. An operator draws
// from it when it opens or grows a buffer and gives back at Close only
// what no live row can reference (the fifth rule in batch.go). The
// engine owns one Store and hands it to every execution it runs through
// Context.Scratch; a nil Store keeps nothing and every draw allocates,
// which is what contexts the engine did not make get.
//
// Each kind of buffer has its own LIFO free lists, one per power-of-two
// capacity class, under one mutex. What the store keeps is bounded in
// bytes (SetBudget): a buffer that would take it past the budget is left
// to the garbage collector. It is not a sync.Pool, which empties at
// every collection and per P, so what a query allocates would follow
// the collector's schedule rather than the queries.
type Store struct {
	mu     sync.Mutex
	budget int64 // bytes the store may keep
	held   int64 // bytes it keeps
	slabs  shelf[value.Value]
	rows   shelf[value.Row]
	slots  shelf[rtSlot]
	spans  shelf[rtSpan]
	keys   shelf[byte]
	chains shelf[int32]
}

// storeClasses bounds the capacity classes: class k holds buffers whose
// capacity is in [2^k, 2^(k+1)).
const storeClasses = 32

// shelf is one kind of buffer's free lists, indexed by capacity class.
type shelf[T any] [storeClasses][][]T

// Element sizes in bytes, for the budget (TestStoreElementSizes checks
// them against unsafe.Sizeof).
const (
	valueBytes = 32
	rowBytes   = 24
	slotBytes  = 16
	spanBytes  = 8
	int32Bytes = 4
)

// NewStore returns an empty store that keeps nothing until SetBudget.
func NewStore() *Store { return &Store{} }

// SetBudget bounds what the store keeps to bytes, dropping buffers, the
// largest classes first, until what it holds fits.
func (s *Store) SetBudget(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = bytes
	for k := storeClasses - 1; k >= 0 && s.held > s.budget; k-- {
		s.held -= drop(&s.slabs[k], valueBytes) + drop(&s.rows[k], rowBytes) +
			drop(&s.slots[k], slotBytes) + drop(&s.spans[k], spanBytes) +
			drop(&s.keys[k], 1) + drop(&s.chains[k], int32Bytes)
	}
}

// drop empties one free list and returns the bytes it held.
func drop[T any](l *[][]T, size int64) int64 {
	var n int64
	for _, b := range *l {
		n += int64(cap(b)) * size
	}
	*l = nil
	return n
}

// PoisonScratch, when set, makes every store overwrite each buffer given
// back with junk — Values with poisonValue — instead of clearing it, and
// panic on a buffer given back twice, so a row read after its buffer was
// given back shows up as a wrong answer or a crash. Only tests set it,
// in an init of an export_test.go, before anything runs.
var PoisonScratch bool

// poisonValue is what PoisonScratch writes into given-back Values.
var poisonValue = value.NewString("\x00given back")

var poisonRow = value.Row{poisonValue}

// take pops the store's smallest-class buffer of sh that holds at least
// n elements, emptied, or returns nil when there is none. A miss drops a
// buffer of the largest class too small for n, so buffers of a size
// nobody asks for any more do not hold the budget for good.
func take[T any](s *Store, sh *shelf[T], size int64, n int) []T {
	n = max(n, 1)
	c := bits.Len(uint(n)) - 1 // the class n falls in
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := c; k < storeClasses; k++ {
		if b := pop(s, &sh[k], size, n); b != nil {
			return b
		}
	}
	for k := min(c, storeClasses-1); k >= 0; k-- {
		if pop(s, &sh[k], size, 0) != nil {
			break
		}
	}
	return nil
}

// pop removes and returns the last buffer of l that holds n elements.
func pop[T any](s *Store, l *[][]T, size int64, n int) []T {
	for i := len(*l) - 1; i >= 0; i-- {
		if b := (*l)[i]; cap(b) >= n {
			last := len(*l) - 1
			(*l)[i] = (*l)[last]
			(*l)[last] = nil
			*l = (*l)[:last]
			s.held -= int64(cap(b)) * size
			return b[:0]
		}
	}
	return nil
}

// give hands b back to the store, which keeps it if its budget allows.
// scrub empties (or, under PoisonScratch, poisons) the buffer first.
func give[T any](s *Store, sh *shelf[T], size int64, b []T, scrub func([]T)) {
	if s == nil || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	k := bits.Len(uint(cap(b))) - 1
	bytes := int64(cap(b)) * size
	scrub(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if PoisonScratch {
		for _, l := range sh {
			for _, kept := range l {
				if &kept[:1][0] == &b[0] {
					panic("exec: a buffer was given back to the store twice")
				}
			}
		}
	}
	if k >= storeClasses || s.held+bytes > s.budget {
		return
	}
	sh[k] = append(sh[k], b[:0])
	s.held += bytes
}

// fill returns a scrub that writes junk into a buffer under
// PoisonScratch and, when clearIt, clears it otherwise: buffers of
// pointer-holding elements are cleared so the store pins no rows or
// strings; the others are rewritten by whoever takes them next.
func fill[T any](junk T, clearIt bool) func([]T) {
	return func(b []T) {
		switch {
		case PoisonScratch:
			for i := range b {
				b[i] = junk
			}
		case clearIt:
			clear(b)
		}
	}
}

var (
	scrubValues = fill(poisonValue, true)
	scrubSlots  = fill(rtSlot{hash: 0x5a5a5a5a5a5a5a5a, id: 0x5a5a5a5a}, false)
	scrubSpans  = fill(rtSpan{off: 0x5a5a5a5a, end: 0x5a5a5a5a}, false)
	scrubKeys   = fill(byte(0x5a), false)
	scrubInts   = fill(int32(0x5a5a5a5a), false)
	scrubRows   = fill(poisonRow, true)
)

// TakeSlab returns an empty slab that holds at least n values, or nil
// when the store keeps none; it is half of value.SlabStore.
func (s *Store) TakeSlab(n int) []value.Value {
	if s == nil {
		return nil
	}
	return take(s, &s.slabs, valueBytes, n)
}

// GiveSlab gives a slab back; it is the other half of value.SlabStore.
func (s *Store) GiveSlab(b []value.Value) {
	if s != nil {
		give(s, &s.slabs, valueBytes, b, scrubValues)
	}
}

// takeRows returns an empty row slice that holds n rows, or nil.
func (s *Store) takeRows(n int) []value.Row {
	if s == nil {
		return nil
	}
	return take(s, &s.rows, rowBytes, n)
}

func (s *Store) giveRows(b []value.Row) {
	if s != nil {
		give(s, &s.rows, rowBytes, b, scrubRows)
	}
}

// ints returns an empty int32 slice that holds n: b itself if it does,
// else one from the store (b goes back), else a new one.
func (s *Store) ints(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:0]
	}
	if s != nil {
		give(s, &s.chains, int32Bytes, b, scrubInts)
		if b := take(s, &s.chains, int32Bytes, n); b != nil {
			return b
		}
	}
	return make([]int32, 0, n)
}

func (s *Store) giveInts(b []int32) {
	if s != nil {
		give(s, &s.chains, int32Bytes, b, scrubInts)
	}
}

// The RowTable's slots, spans and key bytes; take returns nil when the
// store has nothing that holds n.

func (s *Store) takeSlots(n int) []rtSlot {
	if s == nil {
		return nil
	}
	return take(s, &s.slots, slotBytes, n)
}

func (s *Store) giveSlots(b []rtSlot) {
	if s != nil {
		give(s, &s.slots, slotBytes, b, scrubSlots)
	}
}

func (s *Store) takeSpans(n int) []rtSpan {
	if s == nil {
		return nil
	}
	return take(s, &s.spans, spanBytes, n)
}

func (s *Store) giveSpans(b []rtSpan) {
	if s != nil {
		give(s, &s.spans, spanBytes, b, scrubSpans)
	}
}

func (s *Store) takeKeys(n int) []byte {
	if s == nil {
		return nil
	}
	return take(s, &s.keys, 1, n)
}

func (s *Store) giveKeys(b []byte) {
	if s != nil {
		give(s, &s.keys, 1, b, scrubKeys)
	}
}

// slabs returns the context's store as the arenas' value.SlabStore: nil
// (an interface holding no store) when there is none.
func (ctx *Context) slabs() value.SlabStore {
	if ctx.Scratch == nil {
		return nil
	}
	return ctx.Scratch
}

// takeCarrier readies b, a scratch carrier, for pulls of up to n rows:
// under a store, an empty carrier takes the store's best one; else it
// stays as it is, and append grows it as rows come.
func (ctx *Context) takeCarrier(b *Batch, n int) {
	if b.Rows == nil {
		b.Rows = ctx.Scratch.takeRows(n)
	}
}

// giveCarrier gives b's storage back to the context's store and leaves
// b empty. Without a store b keeps its storage for the next Open, as it
// always has.
func (ctx *Context) giveCarrier(b *Batch) {
	if ctx.Scratch != nil {
		ctx.Scratch.giveRows(b.Rows)
		b.Rows = nil
	}
}
