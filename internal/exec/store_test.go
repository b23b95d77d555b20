package exec

import (
	"runtime"
	"testing"
	"unsafe"

	"filterjoin/internal/expr"
	"filterjoin/internal/value"
)

// TestStoreElementSizes holds the byte sizes the store's budget counts
// to the element types.
func TestStoreElementSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"value.Value", unsafe.Sizeof(value.Value{}), valueBytes},
		{"value.Row", unsafe.Sizeof(value.Row{}), rowBytes},
		{"rtSlot", unsafe.Sizeof(rtSlot{}), slotBytes},
		{"rtSpan", unsafe.Sizeof(rtSpan{}), spanBytes},
		{"int32", unsafe.Sizeof(int32(0)), int32Bytes},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, the store counts %d", c.name, c.got, c.want)
		}
	}
}

// TestStoreTakeGive pins the free lists: a take returns the smallest
// class's buffer that holds what was asked (or nil), a give beyond the
// byte budget is dropped, a miss drops the largest buffer too small for
// it, SetBudget trims what the store holds, and a nil store keeps
// nothing.
func TestStoreTakeGive(t *testing.T) {
	s := NewStore()
	s.giveRows(make([]value.Row, 0, 100))
	if s.held != 0 {
		t.Fatalf("a store with no budget keeps %d bytes", s.held)
	}
	s.SetBudget(20_000)
	for _, n := range []int{100, 64, 300} {
		s.giveRows(make([]value.Row, 0, n))
	}
	if want := int64(464 * rowBytes); s.held != want {
		t.Fatalf("holds %d bytes, want %d", s.held, want)
	}
	s.giveRows(make([]value.Row, 0, 1000)) // 24 000 B: over the budget
	if got := cap(s.takeRows(90)); got != 100 {
		t.Fatalf("take(90) got a carrier of %d, want the 100", got)
	}
	if got := cap(s.takeRows(2000)); got != 0 {
		t.Fatalf("take(2000) got a carrier of %d, want none", got)
	}
	// The miss dropped the 300, the largest carrier too small for 2000.
	if got := cap(s.takeRows(1)); got != 64 {
		t.Fatalf("take(1) got %d, want the 64", got)
	}
	if s.held != 0 {
		t.Fatalf("an emptied store holds %d bytes", s.held)
	}
	s.GiveSlab(make([]value.Value, 0, 128))
	s.SetBudget(100)
	if s.held != 0 || s.TakeSlab(1) != nil {
		t.Fatalf("SetBudget below what is held keeps %d bytes", s.held)
	}
	var none *Store
	none.giveRows(make([]value.Row, 0, 8))
	if none.takeRows(1) != nil || none.TakeSlab(1) != nil || cap(none.ints(nil, 5)) != 5 {
		t.Fatal("a nil store lent a buffer")
	}
}

// TestStoreDoubleGivePanics: under PoisonScratch a buffer given back
// twice is a panic, and what is kept is overwritten with junk.
func TestStoreDoubleGivePanics(t *testing.T) {
	s := NewStore()
	s.SetBudget(1 << 20)
	slab := make([]value.Value, 4, 64)
	slab[0] = value.NewInt(7)
	s.GiveSlab(slab)
	if slab[0] != poisonValue {
		t.Fatalf("a kept slab holds %s, want the poison", slab[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("giving one slab back twice did not panic")
		}
	}()
	s.GiveSlab(slab)
}

// TestStoreCarriesScratchAcrossExecutions runs a GROUP BY over a hash
// join twice on one store: the second execution reuses the first one's
// slabs, carriers and tables, so it allocates a fraction of what it
// allocates with no store, and both answer as a run with no store.
func TestStoreCarriesScratchAcrossExecutions(t *testing.T) {
	_, rt, _, _ := borrowTables(t)
	lrows := make([][]int64, 3000)
	for i := range lrows {
		lrows[i] = []int64{int64(i % 13), int64(i % 7)}
	}
	lt := intTable(t, "l", []string{"k", "v"}, lrows)
	aggs := []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}, {Kind: expr.AggSum, Arg: expr.NewCol(1, "v"), Name: "s"}}
	store := NewStore()
	store.SetBudget(1 << 20)
	run := func(scratch *Store) []value.Row {
		ctx := NewContext()
		ctx.BatchSize, ctx.Scratch = DefaultBatchSize, scratch
		j := NewHashJoin(NewTableScan(rt, ""), NewTableScan(lt, ""), []int{0}, []int{0}, nil)
		rows, err := Drain(ctx, NewGroupBy(j, []int{0}, aggs))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := run(nil)
	for i := 0; i < 2; i++ {
		if got := run(store); !rowsEqual(got, want) {
			t.Fatalf("run %d on the store: %v, want %v", i+1, got, want)
		}
	}
	bare, warm := bytesPerRun(func() { run(nil) }), bytesPerRun(func() { run(store) })
	if warm > bare/4 {
		t.Fatalf("an execution on a warm store allocates %d B, %d B with no store", warm, bare)
	}
	t.Logf("%d B per execution on a warm store, %d B with none", warm, bare)
}

// bytesPerRun returns what one call of f allocates, averaged over 20.
func bytesPerRun(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 20
}

func rowsEqual(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}
