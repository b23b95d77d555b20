package exec

import (
	"filterjoin/internal/bloom"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// KeySet is an exact in-memory filter set: the distinct projection of the
// production set onto the join attributes (the paper's "filter set F",
// classically the "magic set").
type KeySet struct {
	rows  []value.Row
	width int

	// Membership is a RowTable over canonical byte keys, with keyBuf as
	// the build-time encoding scratch. Probes supply their own scratch
	// (ContainsBuf) because a set may be shared across goroutines.
	ht     RowTable
	keyBuf []byte
	arena  value.RowArena // the key rows Add projects
}

// NewKeySet creates an empty key set for keys of the given width.
func NewKeySet(width int) *KeySet {
	return NewKeySetSized(width, 0)
}

// NewKeySetSized creates an empty key set pre-sized for about hint
// distinct keys (0 = unknown).
func NewKeySetSized(width, hint int) *KeySet {
	ks := &KeySet{rows: make([]value.Row, 0, hint), width: width}
	ks.ht.Init(hint)
	ks.arena.Reserve(hint * width)
	return ks
}

// BuildKeySet drains op, projecting each row onto keyIdx, and returns the
// distinct key set. One CPU operation is charged per input row.
func BuildKeySet(ctx *Context, op Operator, keyIdx []int) (*KeySet, error) {
	return BuildKeySetSized(ctx, op, keyIdx, 0)
}

// BuildKeySetSized is BuildKeySet with a distinct-key-count hint from the
// optimizer's cardinality estimate (0 = unknown); the hint pre-sizes the
// set's hash table, row buffer and arena and the buffer op is drained
// through (op delivers at least that many rows), and has no effect on
// the result.
func BuildKeySetSized(ctx *Context, op Operator, keyIdx []int, hint int) (*KeySet, error) {
	ks := NewKeySetSized(len(keyIdx), hint)
	err := drainInto(ctx, op, hint, func(rows []value.Row) error {
		ctx.Counter.CPUTuples += int64(len(rows))
		for _, r := range rows {
			ks.Add(r, keyIdx)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ks, nil
}

// Add inserts r's projection onto keyIdx. The key is encoded straight
// from r and only a new key is projected, into the set's arena — a
// duplicate costs no allocation and r is never retained. A key with a
// NULL is left out: it can match no row, and since no stored key holds
// a NULL, no probe key with one is ever found either.
func (s *KeySet) Add(r value.Row, keyIdx []int) {
	if nullKey(r, keyIdx) {
		return
	}
	s.keyBuf = r.AppendKey(s.keyBuf[:0], keyIdx)
	if _, added := s.ht.Insert(s.keyBuf); added {
		s.rows = append(s.rows, s.arena.Project(r, keyIdx))
	}
}

// ContainsBuf tests membership of the projection of r onto keyIdx,
// encoding the probe key into the caller's scratch so per-probe
// allocation is zero; it returns the (possibly grown) buffer for reuse.
// It never touches the set's own scratch, so concurrent probes are safe
// as long as each prober owns its buffer.
func (s *KeySet) ContainsBuf(r value.Row, keyIdx []int, buf []byte) ([]byte, bool) {
	buf = r.AppendKey(buf[:0], keyIdx)
	return buf, s.ht.Lookup(buf) >= 0
}

// Len returns the number of distinct keys.
func (s *KeySet) Len() int { return len(s.rows) }

// Rows returns the distinct key rows (do not mutate).
func (s *KeySet) Rows() []value.Row { return s.rows }

// SizeBytes returns the nominal wire size of the set when shipped:
// 8 bytes per key column per key.
func (s *KeySet) SizeBytes() int { return len(s.rows) * s.width * 8 }

// ToBloom converts the exact set into a Bloom filter with the given
// bits-per-entry budget, adding the key encodings its table already
// stores.
func (s *KeySet) ToBloom(bitsPerEntry float64) *bloom.Filter {
	f := bloom.New(s.ht.Len(), bitsPerEntry)
	for id := range s.ht.Len() {
		f.Add(s.ht.Key(int32(id)))
	}
	return f
}

// KeySetFilter passes through child rows whose key columns appear in the
// set. It charges one CPU operation per tested row. This operator is the
// local-processing half of a semi-join: the inner relation restricted by
// the filter set.
type KeySetFilter struct {
	Child  Operator
	Set    *KeySet
	KeyIdx []int
	in     Batch  // scratch for child pulls
	buf    []byte // private probe-key scratch (sets may be shared)
}

// NewKeySetFilter builds an exact filter-set restriction.
func NewKeySetFilter(child Operator, set *KeySet, keyIdx []int) *KeySetFilter {
	return &KeySetFilter{Child: child, Set: set, KeyIdx: keyIdx}
}

// Schema implements Operator.
func (f *KeySetFilter) Schema() *schema.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *KeySetFilter) Open(ctx *Context) error {
	f.in.Reset()
	f.buf = f.buf[:0]
	return f.Child.Open(ctx)
}

// NextBatch implements Operator: test each row of a child batch no
// larger than the output budget, charging one CPU operation per tested
// row, accumulated locally and flushed once per batch.
func (f *KeySetFilter) NextBatch(ctx *Context, dst *Batch, max int) error {
	ctx.takeCarrier(&f.in, max)
	for len(dst.Rows) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		f.in.Reset()
		if err := f.Child.NextBatch(ctx, &f.in, max); err != nil {
			return err
		}
		if f.in.Len() == 0 {
			return nil
		}
		var cpu int64
		for _, r := range f.in.Rows {
			cpu++
			var hit bool
			f.buf, hit = f.Set.ContainsBuf(r, f.KeyIdx, f.buf)
			if hit {
				dst.Rows = append(dst.Rows, r)
			}
		}
		ctx.Counter.CPUTuples += cpu
	}
	return nil
}

// Close implements Operator.
func (f *KeySetFilter) Close(ctx *Context) {
	ctx.giveCarrier(&f.in)
	f.Child.Close(ctx)
}

// BloomFilterScan passes through child rows that the Bloom filter may
// contain — the lossy filter-set variant. False positives let extra rows
// through; downstream joins remain correct because the final join
// re-checks the join predicate. A row with a NULL key never passes.
type BloomFilterScan struct {
	Child  Operator
	Filter *bloom.Filter
	KeyIdx []int
	in     Batch  // scratch for child pulls
	buf    []byte // probe-key scratch
}

// NewBloomFilterScan builds a lossy filter-set restriction.
func NewBloomFilterScan(child Operator, f *bloom.Filter, keyIdx []int) *BloomFilterScan {
	return &BloomFilterScan{Child: child, Filter: f, KeyIdx: keyIdx}
}

// Schema implements Operator.
func (b *BloomFilterScan) Schema() *schema.Schema { return b.Child.Schema() }

// Open implements Operator.
func (b *BloomFilterScan) Open(ctx *Context) error {
	b.in.Reset()
	return b.Child.Open(ctx)
}

// NextBatch implements Operator: probe the filter for each row of a
// child batch no larger than the output budget, charging one CPU
// operation per probed row, accumulated locally and flushed once.
func (b *BloomFilterScan) NextBatch(ctx *Context, dst *Batch, max int) error {
	ctx.takeCarrier(&b.in, max)
	for len(dst.Rows) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.in.Reset()
		if err := b.Child.NextBatch(ctx, &b.in, max); err != nil {
			return err
		}
		if b.in.Len() == 0 {
			return nil
		}
		var cpu int64
		for _, r := range b.in.Rows {
			cpu++
			if nullKey(r, b.KeyIdx) {
				continue
			}
			b.buf = r.AppendKey(b.buf[:0], b.KeyIdx)
			if b.Filter.MayContain(b.buf) {
				dst.Rows = append(dst.Rows, r)
			}
		}
		ctx.Counter.CPUTuples += cpu
	}
	return nil
}

// Close implements Operator.
func (b *BloomFilterScan) Close(ctx *Context) {
	ctx.giveCarrier(&b.in)
	b.Child.Close(ctx)
}

// KeySetScan exposes a KeySet as a leaf operator so the filter set can be
// joined into a view body (the magic-rewrite "Filter" view of Fig 2).
type KeySetScan struct {
	Set *KeySet
	Sch *schema.Schema
	pos int
}

// NewKeySetScan builds a scan over the distinct keys with the given schema
// (one column per key attribute).
func NewKeySetScan(set *KeySet, sch *schema.Schema) *KeySetScan {
	return &KeySetScan{Set: set, Sch: sch}
}

// Schema implements Operator.
func (k *KeySetScan) Schema() *schema.Schema { return k.Sch }

// Open implements Operator.
func (k *KeySetScan) Open(*Context) error {
	k.pos = 0
	return nil
}

// NextBatch implements Operator: emit the distinct keys a morsel at a
// time, charging one CPU operation per emitted row.
func (k *KeySetScan) NextBatch(ctx *Context, dst *Batch, max int) error {
	ctx.Counter.CPUTuples += int64(dst.AppendFrom(k.Set.Rows(), &k.pos, max))
	return nil
}

// Close implements Operator.
func (k *KeySetScan) Close(*Context) {}
