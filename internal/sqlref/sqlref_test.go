package sqlref_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// TestOnlyTestsImportSQLRef walks the module and fails on any non-test
// Go file that imports this package: the engine must never answer from
// its own reference.
func TestOnlyTestsImportSQLRef(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "filterjoin/internal/sqlref" {
				t.Errorf("%s imports %s; only _test.go files may", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// nullCatalog holds A(k, v) = (1,10), (NULL,20), (NULL,30) and
// B(k, w) = (1,100), (NULL,200), a function relation Twice(k, d) = (k, 2k),
// and the view G = SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v)
// FROM A GROUP BY k.
func nullCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	I, N := value.NewInt, value.Null
	for _, tb := range []struct {
		name, col string
		rows      []value.Row
	}{
		{"A", "v", []value.Row{{I(1), I(10)}, {N, I(20)}, {N, I(30)}}},
		{"B", "w", []value.Row{{I(1), I(100)}, {N, I(200)}}},
	} {
		s := schema.New(schema.Column{Table: tb.name, Name: "k", Type: value.KindInt}, schema.Column{Table: tb.name, Name: tb.col, Type: value.KindInt})
		cat.AddTable(storage.FromRows(tb.name, s, tb.rows))
	}
	twice := schema.New(schema.Column{Table: "Twice", Name: "k", Type: value.KindInt}, schema.Column{Table: "Twice", Name: "d", Type: value.KindInt})
	cat.AddFunc("Twice", twice, []int{0}, func(args value.Row) ([]value.Row, error) {
		return []value.Row{{args[0], I(2 * args[0].Int())}}, nil
	}, nil, 1)
	v := expr.NewCol(1, "A.v")
	cat.AddView("G", &query.Block{
		Rels:    []query.RelRef{{Name: "A"}},
		GroupBy: []int{0},
		Aggs: []expr.AggSpec{
			{Kind: expr.AggCount, Name: "n"}, {Kind: expr.AggSum, Arg: v, Name: "s"}, {Kind: expr.AggAvg, Arg: v, Name: "a"},
			{Kind: expr.AggMin, Arg: v, Name: "lo"}, {Kind: expr.AggMax, Arg: v, Name: "hi"},
		},
	})
	return cat
}

func TestEvalFollowsSQL(t *testing.T) {
	cat := nullCatalog(t)
	eq := func(l, r int) expr.Expr { return expr.Eq(expr.NewCol(l, ""), expr.NewCol(r, "")) }
	for _, tc := range []struct {
		name string
		b    *query.Block
		want []string
	}{
		{"NULL keys join nothing", &query.Block{
			Rels: []query.RelRef{{Name: "A"}, {Name: "B"}}, Preds: []expr.Expr{eq(0, 2)},
			Proj: []query.Output{{Expr: expr.NewCol(1, "A.v")}, {Expr: expr.NewCol(3, "B.w")}},
		}, []string{"10|100"}},
		{"GROUP BY keeps NULLs together", &query.Block{Rels: []query.RelRef{{Name: "G"}}},
			[]string{"1|1|10|10|10|10", "NULL|2|50|25|20|30"}},
		{"aggregates of no rows", &query.Block{
			Rels: []query.RelRef{{Name: "A"}}, Preds: []expr.Expr{expr.NewCmp(expr.GT, expr.NewCol(1, "A.v"), expr.Int(99))},
			Aggs: []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.NewCol(1, "A.v")}},
		}, []string{"0|NULL"}},
		{"DISTINCT keeps one NULL", &query.Block{
			Rels: []query.RelRef{{Name: "A"}}, Distinct: true, Proj: []query.Output{{Expr: expr.NewCol(0, "A.k")}},
		}, []string{"1", "NULL"}},
		{"a function is called per outer binding, never on NULL", &query.Block{
			Rels: []query.RelRef{{Name: "A"}, {Name: "Twice"}}, Preds: []expr.Expr{eq(2, 0)},
			Proj: []query.Output{{Expr: expr.NewCol(3, "Twice.d")}},
		}, []string{"2"}},
		{"HAVING filters groups", &query.Block{
			Rels: []query.RelRef{{Name: "A"}}, GroupBy: []int{0}, Aggs: []expr.AggSpec{{Kind: expr.AggCount}},
			Having: expr.NewCmp(expr.GT, expr.NewCol(1, "n"), expr.Int(1)),
		}, []string{"NULL|2"}},
	} {
		rows, err := sqlref.Eval(cat, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sqlref.Canon(rows); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCheckOrderAndLimit: an answer may order ties either way and cut a
// tie anywhere, but must keep the sort key sequence and draw only SQL's
// rows.
func TestCheckOrderAndLimit(t *testing.T) {
	cat := nullCatalog(t)
	b := &query.Block{Rels: []query.RelRef{{Name: "A"}}, OrderBy: []query.OrderItem{{Col: 0, Desc: true}}, Limit: 2}
	I, N := value.NewInt, value.Null
	for _, tc := range []struct {
		got []value.Row
		ok  bool
	}{
		{[]value.Row{{I(1), I(10)}, {N, I(20)}}, true},
		{[]value.Row{{I(1), I(10)}, {N, I(30)}}, true},
		{[]value.Row{{N, I(20)}, {I(1), I(10)}}, false}, // out of order
		{[]value.Row{{I(1), I(10)}, {N, I(40)}}, false}, // not a row of A
		{[]value.Row{{I(1), I(10)}}, false},             // too few
	} {
		if err := sqlref.Check(cat, b, tc.got); (err == nil) != tc.ok {
			t.Errorf("Check(%v) = %v, want ok=%v", tc.got, err, tc.ok)
		}
	}
	b.Limit = 0
	if err := sqlref.Check(cat, b, []value.Row{{I(1), I(10)}, {N, I(20)}, {N, I(20)}}); err == nil {
		t.Error("a duplicated row in place of another must fail without a LIMIT")
	}
}
