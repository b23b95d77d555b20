package value

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestRowProject(t *testing.T) {
	r := Row{NewInt(1), NewInt(2), NewInt(3)}
	p := r.Project([]int{2, 0})
	if len(p) != 2 || p[0].Int() != 3 || p[1].Int() != 1 {
		t.Errorf("Project = %v", p)
	}
}

func TestRowConcat(t *testing.T) {
	a := Row{NewInt(1)}
	b := Row{NewInt(2), NewInt(3)}
	c := a.Concat(b)
	if len(c) != 3 || c[2].Int() != 3 {
		t.Errorf("Concat = %v", c)
	}
	// Concat must not alias a's backing array in a harmful way.
	c[0] = NewInt(9)
	if a[0].Int() != 1 {
		t.Error("Concat must copy")
	}
}

func TestRowKeyDistinguishes(t *testing.T) {
	a := Row{NewString("ab"), NewString("c")}
	b := Row{NewString("a"), NewString("bc")}
	if a.FullKey() == b.FullKey() {
		t.Error("keys must be unambiguous across string boundaries")
	}
}

func TestRowKeyCrossKindNumeric(t *testing.T) {
	a := Row{NewInt(5)}
	b := Row{NewFloat(5.0)}
	if a.FullKey() != b.FullKey() {
		t.Error("5 and 5.0 must produce the same key (equi-join equality)")
	}
	c := Row{NewFloat(5.5)}
	if a.FullKey() == c.FullKey() {
		t.Error("5 and 5.5 must differ")
	}
}

func TestRowKeyNegativeInts(t *testing.T) {
	a := Row{NewInt(-12)}
	b := Row{NewInt(12)}
	if a.Key([]int{0}) == b.Key([]int{0}) {
		t.Error("sign must be part of the key")
	}
}

func TestRowKeyNullDistinct(t *testing.T) {
	a := Row{Null}
	b := Row{NewInt(0)}
	if a.FullKey() == b.FullKey() {
		t.Error("NULL must not key-collide with 0")
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	if got := r.String(); got != "(1, x)" {
		t.Errorf("String() = %q", got)
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewInt(5)}
	b := Row{NewInt(1), NewInt(7)}
	if CompareRows(a, b, []int{0}, nil) != 0 {
		t.Error("equal on first key")
	}
	if CompareRows(a, b, []int{0, 1}, nil) != -1 {
		t.Error("a < b on second key")
	}
	if CompareRows(a, b, []int{1}, []bool{true}) != 1 {
		t.Error("descending flips the order")
	}
}

func TestKeyUniquenessProperty(t *testing.T) {
	// Rows with different values (under Compare) must have different keys.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Row{randomValue(r), randomValue(r)}
		b := Row{randomValue(r), randomValue(r)}
		same := CompareRows(a, b, []int{0, 1}, nil) == 0
		keysEqual := a.FullKey() == b.FullKey()
		if same != keysEqual {
			// Exception: NULL==NULL for sorting but keys also match; and
			// int/float equality matches keys. So same ⇔ keysEqual holds.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
