package sql

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"testing"

	"filterjoin/internal/value"
)

// kindsAExpr holds each AExpr kind. ANot, ACall and ABinary all lie on
// the path to the column T.a and the parameter $1, so a probe that
// skipped one would miss both; COUNT(*) is a call without an argument.
func kindsAExpr() AExpr {
	sum := ACall{Name: "sum", Arg: ABinary{Op: "+", L: AColumn{Table: "T", Name: "a"}, R: AParam{Idx: 0}}}
	return ABinary{Op: "AND",
		L: ANot{X: ABinary{Op: ">", L: sum, R: ALit{V: value.NewInt(5)}}},
		R: ABinary{Op: "<", L: AColumn{Name: "b"}, R: ACall{Name: "count", Star: true}},
	}
}

// reflectANodes lists e and every node below it in pre-order, finding
// operands by reflection (any field of type AExpr) rather than through
// anyNode's list of which kinds have them.
func reflectANodes(e AExpr) []AExpr {
	out := []AExpr{e}
	v := reflect.ValueOf(e)
	for i := 0; i < v.NumField(); i++ {
		if k, ok := v.Field(i).Interface().(AExpr); ok {
			out = append(out, reflectANodes(k)...)
		}
	}
	return out
}

// TestProbesCoverEveryKind runs each anyNode-based probe over every
// subtree of a tree that holds every AExpr kind ast.go declares, against
// a reflection oracle.
func TestProbesCoverEveryKind(t *testing.T) {
	declared := map[string]bool{}
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "aexpr" {
			declared[fd.Recv.List[0].Type.(*ast.Ident).Name] = true
		}
	}
	kinds := map[string]bool{}
	for _, n := range reflectANodes(kindsAExpr()) {
		kinds[reflect.TypeOf(n).Name()] = true
	}
	if !reflect.DeepEqual(kinds, declared) {
		t.Fatalf("the tree holds kinds %v, ast.go declares %v", kinds, declared)
	}

	for _, n := range reflectANodes(kindsAExpr()) {
		has := map[string]bool{}
		nodes := reflectANodes(n)
		for _, k := range nodes {
			has[reflect.TypeOf(k).Name()] = true
		}
		visited := 0
		anyNode(n, func(AExpr) bool { visited++; return false })
		wantParams := 0
		if has["AParam"] {
			wantParams = 1
		}
		inItems := &SelectStmt{Items: []SelectItem{{Expr: n}}}
		gotParams, err := NumParams(inItems)
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"anyNode visits", visited, len(nodes)},
			{"anyNode(is[AColumn])", anyNode(n, is[AColumn]), has["AColumn"]},
			{"anyNode(is[ACall])", anyNode(n, is[ACall]), has["ACall"]},
			{"refersColumn", refersColumn(n), has["AColumn"] && !has["ACall"]},
			{"HasParams in the select list", HasParams(inItems), has["AParam"]},
			{"HasParams in WHERE", HasParams(&SelectStmt{Where: n}), has["AParam"]},
			{"HasParams in HAVING", HasParams(&SelectStmt{Having: n}), has["AParam"]},
			{"NumParams", gotParams, wantParams},
			{"NumParams error", err, error(nil)},
		} {
			if c.got != c.want {
				t.Errorf("%s over %s = %v, want %v", c.name, formatAExpr(n), c.got, c.want)
			}
		}
	}
}
