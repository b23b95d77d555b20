package value

import (
	"bytes"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// testValues covers every kind plus the encoding edge cases: integral
// floats folding to ints, negative zero, negatives, empty strings and
// strings holding 0x00.
var testValues = []Value{
	Null,
	NewInt(0), NewInt(1), NewInt(-1), NewInt(42), NewInt(math.MaxInt64), NewInt(math.MinInt64 + 1),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(3), NewFloat(-17), NewFloat(3.25),
	NewFloat(-2.5), NewFloat(1e300), NewFloat(math.SmallestNonzeroFloat64),
	NewString(""), NewString("a"), NewString("i42|"), NewString("s3:abc|"), NewString("héllo"), NewString("a\x00"),
	NewBool(true), NewBool(false),
}

func TestHashBytesMatchesFnv(t *testing.T) {
	for _, s := range []string{"", "a", "i42|s3:abc|", "héllo"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := HashBytes([]byte(s)), h.Sum64(); got != want {
			t.Errorf("HashBytes(%q) = %#x, fnv = %#x", s, got, want)
		}
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	var buf []byte
	for i, a := range testValues {
		for _, b := range testValues {
			r := Row{a, b, a}
			idx := []int{2, 0, 1}
			buf = r.AppendKey(buf[:0], idx)
			if got, want := string(buf), r.Key(idx); got != want {
				t.Fatalf("AppendKey(%s,%s) = %q, Key = %q", a, b, got, want)
			}
			buf = r.AppendFullKey(buf[:0])
			if got, want := string(buf), r.FullKey(); got != want {
				t.Fatalf("AppendFullKey(%s,%s) = %q, FullKey = %q", a, b, got, want)
			}
		}
		// Distinct values must encode distinctly, except the deliberate
		// int/float fold.
		for j, b := range testValues {
			if i == j {
				continue
			}
			ka, kb := Row{a}.FullKey(), Row{b}.FullKey()
			af, aok := a.AsFloat()
			bf, bok := b.AsFloat()
			if aok && bok && af == bf {
				if ka != kb {
					t.Errorf("numerically equal %s and %s should share a key: %q vs %q", a, b, ka, kb)
				}
				continue
			}
			if ka == kb {
				t.Errorf("distinct values %s (%s) and %s (%s) collide on key %q", a, a.Kind(), b, b.Kind(), ka)
			}
		}
	}
}

func TestAppendKeyAllocFree(t *testing.T) {
	r := Row{NewInt(7), NewString("a\x00bc"), NewFloat(2.5), NewFloat(1e300), NewBool(true), Null}
	idx := []int{0, 1, 2, 3, 4, 5}
	buf := make([]byte, 0, 128)
	if n := mallocs(100, func() { buf = r.AppendKey(buf[:0], idx) }); n != 0 {
		t.Errorf("100 AppendKey calls allocate %d times, want 0", n)
	}
}

// mallocs counts the heap allocations of runs calls of f after one
// warm-up call: the total, which testing.AllocsPerRun's integer mean
// would round down.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAppendKeyEdgePairs: the pairs where a key encoding is easiest to
// get wrong, each with the order Compare gives it. The keys must agree
// in sign under bytes.Compare.
func TestAppendKeyEdgePairs(t *testing.T) {
	i, f, s := NewInt, NewFloat, NewString
	// Strings holding the string tag: a key without the terminator would
	// run into the next column's tag.
	tag := string(rune(keyString))
	cases := []struct {
		a, b Row
		want int
	}{
		{Row{f(0)}, Row{f(math.Copysign(0, -1))}, 0},
		{Row{i(0)}, Row{f(math.Copysign(0, -1))}, 0},
		{Row{i(1<<53 + 1)}, Row{f(1 << 53)}, 1},
		{Row{i(1<<53 - 1)}, Row{f(1 << 53)}, -1},
		{Row{f(1 << 63)}, Row{i(math.MaxInt64)}, 1},
		{Row{f(-(1 << 63))}, Row{i(math.MinInt64)}, 0},
		{Row{f(math.Inf(-1))}, Row{i(math.MinInt64)}, -1},
		{Row{i(3)}, Row{f(3)}, 0},
		{Row{f(-2.5)}, Row{i(-2)}, -1},
		{Row{s("a")}, Row{s("a\x00")}, -1},
		{Row{s("")}, Row{Null}, 1},
		{Row{s("a"), s("c")}, Row{s("a" + tag + "b"), s("")}, -1},
		{Row{s("a"), s("z")}, Row{s("ab"), Null}, -1},
		{Row{s(""), s(tag)}, Row{s(tag), s("")}, -1},
	}
	for _, c := range cases {
		all := []int{0, 1}[:len(c.a)]
		if got := CompareRows(c.a, c.b, all, nil); got != c.want {
			t.Errorf("CompareRows(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		ka, kb := c.a.AppendFullKey(nil), c.b.AppendFullKey(nil)
		if got := bytes.Compare(ka, kb); got != c.want {
			t.Errorf("%v vs %v: keys %x and %x compare %d, want %d", c.a, c.b, ka, kb, got, c.want)
		}
	}
}

func TestRowArena(t *testing.T) {
	var a RowArena
	l := Row{NewInt(1), NewString("x")}
	r := Row{NewFloat(2.5)}
	got := a.Concat(l, r)
	want := l.Concat(r)
	if len(got) != len(want) {
		t.Fatalf("Concat length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if Compare(got[i], want[i]) != 0 {
			t.Fatalf("Concat[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	p := a.Project(got, []int{2, 0})
	if p[0].Float() != 2.5 || p[1].Int() != 1 {
		t.Fatalf("Project = %s", Row(p))
	}
	// Appending to an arena row must not tromp on a later allocation.
	x := a.Make(1)
	_ = append(got, NewInt(99))
	if !x[0].IsNull() {
		t.Fatalf("append to arena row overwrote neighbor: %s", x[0])
	}
	// Large requests beyond the chunk size still work.
	big := a.Make(10000)
	if len(big) != 10000 {
		t.Fatalf("Make(10000) length %d", len(big))
	}
	if n := testing.AllocsPerRun(100, func() {
		var aa RowArena
		for i := 0; i < 100; i++ {
			aa.Concat(l, r)
		}
	}); n > 3 {
		t.Errorf("arena Concat x100 allocates %.1f, want amortized <= 3", n)
	}
}

// TestRowArenaWideRowsKeepSlab: rows wider than any slab get their own
// allocation and leave the live slab to the narrow rows around them, so
// an interleaved stream allocates one block per wide row plus only the
// slabs its narrow values fill — not a fresh slab after every wide row.
func TestRowArenaWideRowsKeepSlab(t *testing.T) {
	const pairs, wide, narrow = 100, arenaMaxSlab + 1, 4
	slabs := 0 // the doubling schedule over the narrow values alone
	for held, size := 0, arenaFirstSlab; held < pairs*narrow; size = min(2*size, arenaMaxSlab) {
		held += size
		slabs++
	}
	got := testing.AllocsPerRun(10, func() {
		var a RowArena
		for i := 0; i < pairs; i++ {
			a.Make(wide)
			a.Make(narrow)
		}
	})
	if int(got) > pairs+slabs {
		t.Fatalf("%d wide/narrow pairs made %.0f allocations, want <= %d wide rows + %d slabs", pairs, got, pairs, slabs)
	}
}

// TestRowArenaRecycle: after Recycle the arena carves the next rows
// from the slabs it already has — a pull no larger than the last one
// allocates nothing, and its rows come back zeroed — while the slabs
// stay answer-sized: a 30-row pull of width 2 holds one 64-value slab.
func TestRowArenaRecycle(t *testing.T) {
	var a RowArena
	pull := func(rows, width int) {
		a.Recycle(nil)
		for i := 0; i < rows; i++ {
			r := a.Make(width)
			for j := range r {
				if !r[j].IsNull() {
					t.Fatalf("recycled row %d holds %s", i, r[j])
				}
				r[j] = NewInt(int64(i))
			}
		}
	}
	pull(30, 2)
	if a.kept() != 1 || cap(a.first) != arenaFirstSlab {
		t.Fatalf("a 60-value pull keeps %d slabs, the first of %d values; want one of %d", a.kept(), cap(a.first), arenaFirstSlab)
	}
	if n := testing.AllocsPerRun(20, func() { pull(30, 2) }); n != 0 {
		t.Errorf("a recycled 30-row pull allocates %.1f, want 0", n)
	}
	pull(1024, 6) // a morsel of six-wide joined rows grows the slab list once
	if n := testing.AllocsPerRun(20, func() { pull(1024, 6) }); n != 0 {
		t.Errorf("a recycled 1024-row pull allocates %.1f, want 0", n)
	}
}

// FuzzAppendKey: for values of every kind but NaN, two rows of one or
// two columns share an AppendKey encoding exactly when Compare says
// every column pair is equal, and bytes.Compare of their keys agrees in
// sign with Compare — so the hash paths, which join and group on the
// key, and the compare paths (merge join, sort, predicates) agree on
// which values are equal, and GROUP BY's key order is value order.
// Each value is a kind selector, 64 payload bits and a string.
func FuzzAppendKey(f *testing.F) {
	const kInt, kFloat = 1, 2
	fl := math.Float64bits
	f.Add(uint8(kFloat), uint8(kFloat), fl(0), fl(math.Copysign(0, -1)), "", "")
	f.Add(uint8(kInt), uint8(kFloat), uint64(0), fl(math.Copysign(0, -1)), "", "")
	f.Add(uint8(kInt), uint8(kFloat), uint64(1<<53+1), fl(1<<53), "", "")
	f.Add(uint8(kInt), uint8(kFloat), uint64(1<<53-1), fl(1<<53), "", "")
	f.Add(uint8(kInt), uint8(kInt), uint64(1<<53+1), uint64(1<<53), "", "")
	f.Add(uint8(kFloat), uint8(kInt), fl(1<<63), uint64(math.MaxInt64), "", "")
	f.Add(uint8(kFloat), uint8(kInt), fl(-(1 << 63)), uint64(1<<63), "", "") // MinInt64
	f.Add(uint8(3), uint8(3), uint64(0), uint64(0), "i1|", "i1")
	f.Add(uint8(3), uint8(3), uint64(0), uint64(0), "a", "a\x00")
	f.Add(uint8(3), uint8(3), uint64(0), uint64(0), "", string(rune(keyString)))
	f.Add(uint8(kFloat), uint8(kFloat), fl(math.Inf(1)), fl(-2.5), "", "")
	f.Fuzz(func(t *testing.T, ka, kb uint8, a, b uint64, sa, sb string) {
		va, vb := fuzzValue(ka, a, sa), fuzzValue(kb, b, sb)
		for _, v := range []Value{va, vb} {
			if x, ok := v.AsFloat(); ok && math.IsNaN(x) {
				return
			}
		}
		for _, rows := range [][2]Row{{{va}, {vb}}, {{va, vb}, {vb, va}}} {
			keyA, keyB := rows[0].AppendFullKey(nil), rows[1].AppendFullKey(nil)
			want := CompareRows(rows[0], rows[1], []int{0, 1}[:len(rows[0])], nil)
			if got := bytes.Compare(keyA, keyB); got != want {
				t.Fatalf("%v vs %v: keys %x and %x compare %d, Compare %d", rows[0], rows[1], keyA, keyB, got, want)
			}
		}
	})
}

// fuzzValue builds the value kind%5 selects: NULL, int, float, string or
// bool, from the payload bits or s.
func fuzzValue(kind uint8, bits uint64, s string) Value {
	switch kind % 5 {
	case 1:
		return NewInt(int64(bits))
	case 2:
		return NewFloat(math.Float64frombits(bits))
	case 3:
		return NewString(s)
	case 4:
		return NewBool(bits&1 == 1)
	}
	return Null
}
