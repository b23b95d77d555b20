package plan

import "testing"

func key(desc bool, cols ...int) OrderKey { return OrderKey{Cols: cols, Desc: desc} }

func TestOrderingSatisfies(t *testing.T) {
	have := Ordering{key(false, 0, 2), key(true, 1)}
	cases := []struct {
		name string
		want Ordering
		ok   bool
	}{
		{"empty want", nil, true},
		{"exact first key", Ordering{key(false, 0)}, true},
		{"equivalent column", Ordering{key(false, 2)}, true},
		{"both keys", Ordering{key(false, 2), key(true, 1)}, true},
		{"wrong direction", Ordering{key(true, 0)}, false},
		{"wrong column", Ordering{key(false, 1)}, false},
		{"longer than have", Ordering{key(false, 0), key(true, 1), key(false, 3)}, false},
		{"second key only (not a prefix)", Ordering{key(true, 1)}, false},
	}
	for _, c := range cases {
		if got := have.Satisfies(c.want); got != c.ok {
			t.Errorf("%s: Satisfies(%v) = %v, want %v", c.name, c.want, got, c.ok)
		}
	}
	if (Ordering)(nil).Satisfies(Ordering{key(false, 0)}) {
		t.Error("nil ordering must not satisfy a non-empty want")
	}
	if !(Ordering)(nil).Satisfies(nil) {
		t.Error("nil ordering satisfies the empty want")
	}
}

func TestOrderingPrefixCovers(t *testing.T) {
	have := Ordering{key(false, 0, 2), key(true, 1)}
	cases := []struct {
		name string
		cols []int
		ok   bool
	}{
		{"empty set", nil, true},
		{"first key", []int{0}, true},
		{"first key via equivalent", []int{2}, true},
		{"both keys any direction", []int{1, 0}, true},
		{"second key alone leaves a gap", []int{1}, false},
		{"column not in the ordering", []int{3}, false},
		{"covered plus uncovered", []int{0, 3}, false},
	}
	for _, c := range cases {
		if got := have.PrefixCovers(c.cols); got != c.ok {
			t.Errorf("%s: PrefixCovers(%v) = %v, want %v", c.name, c.cols, got, c.ok)
		}
	}
}

func TestOrderingExtendEquiv(t *testing.T) {
	have := Ordering{key(false, 0), key(false, 1)}
	other := Ordering{key(true, 9)}
	keys, cols := Ordering{other[0]}, []int{9}
	ext, keys, cols := have.AppendExtendEquiv(keys, cols, []int{0, 3}, []int{5, 6})
	if !ext[0].Has(5) {
		t.Errorf("key equated with inner column must widen: %v", ext[0])
	}
	if ext[1].Has(6) {
		t.Errorf("unrelated pair must not widen key: %v", ext[1])
	}
	// The receiver must be untouched: orderings are shared between nodes.
	if have[0].Has(5) {
		t.Error("AppendExtendEquiv mutated its receiver")
	}
	// It appends: what the buffers held before is still there.
	if len(keys) != 3 || !keys[0].Has(9) || cols[0] != 9 {
		t.Errorf("buffers after the append: keys %v, cols %v", keys, cols)
	}
	// An ordering no pair touches comes back as is, the buffers unchanged.
	same, k2, c2 := have.AppendExtendEquiv(keys, cols, []int{7}, []int{8})
	if &same[0] != &have[0] || len(k2) != len(keys) || len(c2) != len(cols) {
		t.Error("an untouched ordering must be returned as is")
	}
	if got, _, _ := (Ordering)(nil).AppendExtendEquiv(nil, nil, []int{0}, []int{1}); got != nil {
		t.Errorf("nil ordering extends to nil, got %v", got)
	}
}

func TestOrderingClone(t *testing.T) {
	have := Ordering{key(false, 0, 2), key(true, 7)}
	c := have.Clone()
	if c.Key() != have.Key() {
		t.Fatalf("Clone = %v, want %v", c, have)
	}
	c[0].Cols[0] = 99
	if have[0].Cols[0] != 0 {
		t.Error("Clone shares columns with its source")
	}
	if (Ordering)(nil).Clone() != nil {
		t.Error("nil clones to nil")
	}
}

func TestOrderingProjectTruncatesAtGap(t *testing.T) {
	have := Ordering{key(false, 0, 2), key(true, 1), key(false, 3)}
	got := have.Project(func(c int) bool { return c == 2 || c == 3 })
	// Key 0 survives via column 2; key 1 dies, so key 3 must not leak
	// through the gap (it is not a usable prefix on its own).
	if len(got) != 1 || !got[0].Has(2) || got[0].Has(0) {
		t.Errorf("Project = %v, want a single key on column 2", got)
	}
}

func TestOrderingKeyCanonical(t *testing.T) {
	if got := (Ordering{key(false, 0, 2), key(true, 7)}).Key(); got != "0=2;7 desc" {
		t.Errorf("Key() = %q", got)
	}
	if got := (Ordering)(nil).Key(); got != "" {
		t.Errorf("nil Key() = %q, want empty", got)
	}
}
