package expr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"filterjoin/internal/value"
)

// kindsTree holds each of the eight expression kinds. Every node with
// operands (And, Or, Not, Cmp, Arith) lies on the path to the column a
// and the parameter ?1, so a traversal that skipped one would miss both.
// The first Or kid has no column or parameter, so a rewrite must keep it
// while it replaces its sibling.
func kindsTree() Expr {
	a := Col{Idx: 0, Name: "a"}
	p1 := Param{Idx: 0, V: value.NewInt(1), Has: true}
	return And{Kids: []Expr{
		Or{Kids: []Expr{
			Cmp{Op: EQ, L: Int(1), R: Int(1)},
			Not{Kid: Cmp{Op: GT, L: Arith{Op: Add, L: a, R: p1}, R: Int(5)}},
		}},
		Cmp{Op: LT, L: Col{Idx: 1, Name: "b"}, R: Param{Idx: 1}},
	}}
}

// reflectNodes lists e and every node below it in pre-order. It finds
// operands by reflection (any field of type Expr or []Expr), so it does
// not share mapLeaves' list of which kinds have them.
func reflectNodes(e Expr) []Expr {
	out := []Expr{e}
	v := reflect.ValueOf(e)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i).Interface().(type) {
		case Expr:
			out = append(out, reflectNodes(f)...)
		case []Expr:
			for _, k := range f {
				out = append(out, reflectNodes(k)...)
			}
		}
	}
	return out
}

// declaredKinds names every type in the package's non-test files that
// has an Eval method: the Expr kinds.
func declaredKinds(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Eval" {
				if id, ok := fd.Recv.List[0].Type.(*ast.Ident); ok {
					kinds[id.Name] = true
				}
			}
		}
	}
	return kinds
}

func leafSet(e Expr, param bool, offset int) map[int]bool {
	set := map[int]bool{}
	for _, n := range reflectNodes(e) {
		switch x := n.(type) {
		case Col:
			if !param {
				set[x.Idx+offset] = true
			}
		case Param:
			if param {
				set[x.Idx] = true
			}
		}
	}
	return set
}

// TestTraversalsCoverEveryKind runs each mapLeaves-based function over
// every subtree of a tree that holds every Expr kind the package
// declares, against a reflection oracle.
func TestTraversalsCoverEveryKind(t *testing.T) {
	tree := kindsTree()
	kinds := map[string]bool{}
	for _, n := range reflectNodes(tree) {
		kinds[reflect.TypeOf(n).Name()] = true
	}
	if want := declaredKinds(t); !reflect.DeepEqual(kinds, want) {
		t.Fatalf("the tree holds kinds %v, the package declares %v", kinds, want)
	}

	shiftBy, remapBy := 10, 20
	m := make([]int, 2)
	for i := range m {
		m[i] = i + remapBy
	}
	bindings := []value.Value{value.NewInt(7), value.NewInt(8)}
	for _, n := range reflectNodes(tree) {
		cols, params := leafSet(n, false, 0), leafSet(n, true, 0)
		for _, c := range []struct {
			name      string
			got, want map[int]bool
		}{
			{"CollectCols", collect(CollectCols, n), cols},
			{"CollectParams", collect(CollectParams, n), params},
			{"Shift", collect(CollectCols, Shift(n, shiftBy)), leafSet(n, false, shiftBy)},
			{"Shift method", collect(CollectCols, n.Shift(shiftBy)), leafSet(n, false, shiftBy)},
			{"Remap", collect(CollectCols, Remap(n, m)), leafSet(n, false, remapBy)},
			{"BindParams", collect(CollectParams, BindParams(n, bindings)), map[int]bool{}},
			{"input after the rewrites", collect(CollectCols, n), cols},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s over %s = %v, want %v", c.name, n, c.got, c.want)
			}
		}
		if got, want := Mappable(n, []int{-1, 0}), !cols[0]; got != want {
			t.Errorf("Mappable(%s) without column 0 = %v, want %v", n, got, want)
		}
		if _, changed := mapLeaves(n, func(l Expr) (Expr, bool) { return l, false }); changed {
			t.Errorf("a visit of %s reported a change", n)
		}
		if _, changed := mapLeaves(n, func(l Expr) (Expr, bool) { return l, true }); !changed {
			t.Errorf("a rewrite of every leaf of %s reported no change", n)
		}
	}

	want := "(1 = 1) OR (NOT ((a + 1) > 5)) AND b < ?2"
	if got := tree.String(); got != want {
		t.Fatalf("tree renders %q, want %q", got, want)
	}
	for _, c := range []struct {
		params []value.Value
		want   string
	}{
		{nil, want},
		{bindings[:1], "(1 = 1) OR (NOT ((a + 7) > 5)) AND b < ?2"},
		{bindings, "(1 = 1) OR (NOT ((a + 7) > 5)) AND b < 8"},
	} {
		if got := BindParams(tree, c.params).String(); got != c.want {
			t.Errorf("BindParams(%v) = %q, want %q", c.params, got, c.want)
		}
	}
	if !Mappable(tree, []int{0, 1}) || Mappable(tree, []int{0, -1}) {
		t.Error("Mappable must require both columns")
	}
}

func collect(f func(Expr, map[int]bool), e Expr) map[int]bool {
	set := map[int]bool{}
	f(e, set)
	return set
}

// TestBindSharesUnchangedLists: the list forms copy only when an element
// holds a Param the binding replaces.
func TestBindSharesUnchangedLists(t *testing.T) {
	params := []value.Value{value.NewInt(7)}
	plain := []Expr{Int(1), NewCol(0, "a")}
	if got := BindParamsList(plain, params); &got[0] != &plain[0] {
		t.Error("BindParamsList copied a list without parameters")
	}
	mixed := []Expr{Int(1), Param{Idx: 0}}
	got := BindParamsList(mixed, params)
	if &got[0] == &mixed[0] || got[0].String() != "1" || got[1].String() != "7" || mixed[1].String() != "?1" {
		t.Errorf("BindParamsList = %v from %v, want a bound copy", got, mixed)
	}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Arg: NewCol(0, "a")}}
	if out := BindAggs(aggs, params); &out[0] != &aggs[0] {
		t.Error("BindAggs copied specs without parameters")
	}
	aggs[1].Arg = Arith{Op: Mul, L: NewCol(0, "a"), R: Param{Idx: 0}}
	if out := BindAggs(aggs, params); &out[0] == &aggs[0] || out[1].String() != "SUM((a * 7))" {
		t.Errorf("BindAggs = %v, want a bound copy", out)
	}
}

// TestParamBindingRule: Param.Value, the BindParams leaf and a compiled
// comparison operand resolve a Param the same way.
func TestParamBindingRule(t *testing.T) {
	planned := value.NewInt(3)
	for _, c := range []struct {
		p      Param
		params []value.Value
		want   value.Value // ignored when unbound
		bound  bool
	}{
		{Param{Idx: 0, V: planned, Has: true}, []value.Value{value.NewInt(5)}, value.NewInt(5), true},
		{Param{Idx: 1, V: planned, Has: true}, []value.Value{value.NewInt(5)}, planned, true},
		{Param{Idx: 0, V: planned, Has: true}, nil, planned, true},
		{Param{Idx: 0}, []value.Value{value.NewInt(5)}, value.NewInt(5), true},
		{Param{Idx: 1}, []value.Value{value.NewInt(5)}, value.Null, false},
		{Param{Idx: 0}, nil, value.Null, false},
	} {
		v, err := c.p.Value(c.params)
		if (err == nil) != c.bound || (c.bound && value.Compare(v, c.want) != 0) {
			t.Errorf("%+v.Value(%v) = %v, %v", c.p, c.params, v, err)
		}
		if c.params == nil {
			if _, err := c.p.Eval(nil); (err == nil) != c.bound {
				t.Errorf("%+v.Eval: err = %v", c.p, err)
			}
		}
		// col = param, on a row whose column holds the expected value.
		pred := Cmp{Op: EQ, L: NewCol(0, "a"), R: c.p}
		r := row(c.want)
		interp, ierr := EvalBool(BindParams(pred, c.params), r)
		compiled := CompilePred(pred)
		compiled.Bind(c.params)
		kern, kerr := compiled.EvalRow(r)
		if (ierr == nil) != c.bound || (kerr == nil) != c.bound || interp != c.bound || kern != c.bound {
			t.Errorf("%+v under %v: interpreted %v, %v; compiled %v, %v", c.p, c.params, interp, ierr, kern, kerr)
		}
	}
}
