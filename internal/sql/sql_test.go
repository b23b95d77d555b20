package sql

import (
	"strings"
	"testing"

	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE a >= 10.5 AND s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ",", "b", "FROM", "t", "WHERE", "a", ">=", "10.5", "AND", "s", "=", "it's"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
	if _, err := lex("a # b"); err == nil {
		t.Error("unexpected character must error")
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("a -- comment\n b")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 { // a, b, EOF
		t.Errorf("comment not skipped: %v", toks)
	}
}

func TestLexBangEquals(t *testing.T) {
	toks, err := lex("a != b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].text != "<>" {
		t.Errorf("!= should normalize to <>: %v", toks[1])
	}
	if _, err := lex("a ! b"); err == nil {
		t.Error("lone ! must error")
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE Emp (eid int, sal float, name varchar, ok boolean)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "Emp" || len(ct.Cols) != 4 {
		t.Fatalf("parsed %+v", ct)
	}
	wantTypes := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool}
	for i, w := range wantTypes {
		if ct.Cols[i].Type != w {
			t.Errorf("col %d type %v, want %v", i, ct.Cols[i].Type, w)
		}
	}
	if _, err := Parse("CREATE TABLE t (a blob)"); err == nil {
		t.Error("unknown type must error")
	}
}

func TestParseCreateIndexAndView(t *testing.T) {
	st, err := Parse("CREATE INDEX i ON t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	ci := st.(*CreateIndex)
	if ci.Name != "i" || ci.Table != "t" || len(ci.Cols) != 2 {
		t.Errorf("parsed %+v", ci)
	}
	st, err = Parse("CREATE VIEW v AS (SELECT a FROM t)")
	if err != nil {
		t.Fatal(err)
	}
	cv := st.(*CreateView)
	if cv.Name != "v" || cv.Select == nil {
		t.Errorf("parsed %+v", cv)
	}
	// Without parentheses too.
	if _, err := Parse("CREATE VIEW v AS SELECT a FROM t"); err != nil {
		t.Errorf("unparenthesized view: %v", err)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES (1, -2.5, 'x', true, null), (2, 3.0, 'y', false, 4)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if len(ins.Rows) != 2 || len(ins.Rows[0]) != 5 {
		t.Fatalf("parsed %+v", ins)
	}
	if ins.Rows[0][1].Float() != -2.5 {
		t.Error("negative float literal")
	}
	if !ins.Rows[0][4].IsNull() {
		t.Error("null literal")
	}
	if ins.Rows[1][3].Bool() {
		t.Error("false literal")
	}
}

func TestParseSelectShape(t *testing.T) {
	st, err := Parse(`SELECT DISTINCT E.did, AVG(E.sal) AS avgsal
		FROM Emp E, Dept AS D
		WHERE E.did = D.did AND (E.age < 30 OR NOT E.age > 65)
		GROUP BY E.did`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if !sel.Distinct || len(sel.Items) != 2 || len(sel.From) != 2 || len(sel.GroupBy) != 1 {
		t.Fatalf("parsed %+v", sel)
	}
	if sel.From[0].Alias != "E" || sel.From[1].Alias != "D" {
		t.Error("aliases")
	}
	call, ok := sel.Items[1].Expr.(ACall)
	if !ok || !strings.EqualFold(call.Name, "avg") || sel.Items[1].Alias != "avgsal" {
		t.Errorf("agg item = %+v", sel.Items[1])
	}
}

func TestParseCountStar(t *testing.T) {
	st, err := Parse("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	call := st.(*SelectStmt).Items[0].Expr.(ACall)
	if !call.Star {
		t.Error("COUNT(*) star flag")
	}
}

func TestParseStar(t *testing.T) {
	st, err := Parse("SELECT * FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*SelectStmt).Star {
		t.Error("star select")
	}
}

func TestParsePrecedence(t *testing.T) {
	st, err := Parse("SELECT a FROM t WHERE a + 1 * 2 = 3 AND b = 1 OR c = 2")
	if err != nil {
		t.Fatal(err)
	}
	w := st.(*SelectStmt).Where.(ABinary)
	if w.Op != "OR" {
		t.Errorf("OR binds loosest, got %s", w.Op)
	}
	l := w.L.(ABinary)
	if l.Op != "AND" {
		t.Errorf("AND above comparisons, got %s", l.Op)
	}
	cmp := l.L.(ABinary)
	if cmp.Op != "=" {
		t.Errorf("comparison, got %s", cmp.Op)
	}
	add := cmp.L.(ABinary)
	if add.Op != "+" {
		t.Errorf("addition, got %s", add.Op)
	}
	if add.R.(ABinary).Op != "*" {
		t.Error("multiplication binds tighter than addition")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a t trailing garbage (",
		"INSERT INTO t VALUES 1",
		"CREATE TABLE t a int)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseScript(t *testing.T) {
	sts, err := ParseScript("CREATE TABLE t (a int); INSERT INTO t VALUES (1); SELECT a FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("parsed %d statements", len(sts))
	}
	if _, err := ParseScript("SELECT a FROM t junk ("); err == nil {
		t.Error("trailing garbage must error")
	}
}

// ---------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------

type res map[string]*schema.Schema

func (r res) RelationSchema(name string) (*schema.Schema, error) {
	if s, ok := r[name]; ok {
		return s, nil
	}
	return nil, errUnknownRel(name)
}

type errUnknownRel string

func (e errUnknownRel) Error() string { return "unknown " + string(e) }

func binderResolver() res {
	return res{
		"Emp": schema.New(
			schema.Column{Table: "Emp", Name: "eid", Type: value.KindInt},
			schema.Column{Table: "Emp", Name: "did", Type: value.KindInt},
			schema.Column{Table: "Emp", Name: "sal", Type: value.KindFloat},
		),
		"Dept": schema.New(
			schema.Column{Table: "Dept", Name: "did", Type: value.KindInt},
		),
	}
}

func bind(t *testing.T, src string) (*query.Block, error) {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return BindSelect(binderResolver(), st.(*SelectStmt))
}

func TestBindSimpleSelect(t *testing.T) {
	b, err := bind(t, "SELECT E.eid, E.sal FROM Emp E WHERE E.sal > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Proj) != 2 || len(b.Preds) != 1 || len(b.Rels) != 1 {
		t.Fatalf("block = %+v", b)
	}
	col := b.Proj[0].Expr.(expr.Col)
	if col.Idx != 0 {
		t.Errorf("eid bound to %d", col.Idx)
	}
}

func TestBindJoinConjuncts(t *testing.T) {
	b, err := bind(t, "SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did AND E.sal > 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Preds) != 2 {
		t.Fatalf("conjuncts = %d", len(b.Preds))
	}
	eq := b.Preds[0].(expr.Cmp)
	if eq.L.(expr.Col).Idx != 1 || eq.R.(expr.Col).Idx != 3 {
		t.Errorf("join pred bound to %v", eq)
	}
}

func TestBindAggregation(t *testing.T) {
	b, err := bind(t, "SELECT E.did, AVG(E.sal) AS a, COUNT(*) AS n FROM Emp E GROUP BY E.did")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.GroupBy) != 1 || b.GroupBy[0] != 1 || len(b.Aggs) != 2 {
		t.Fatalf("block = %+v", b)
	}
	if b.Aggs[0].Kind != expr.AggAvg || b.Aggs[1].Kind != expr.AggCount {
		t.Error("agg kinds")
	}
	if b.Aggs[0].Name != "a" {
		t.Error("agg alias")
	}
}

func TestBindAggregationErrors(t *testing.T) {
	cases := []string{
		// Non-grouped column in select list.
		"SELECT E.eid, COUNT(*) FROM Emp E GROUP BY E.did",
		// Group column missing from select list.
		"SELECT COUNT(*) FROM Emp E GROUP BY E.did",
		// Aggregate before grouping column.
		"SELECT COUNT(*), E.did FROM Emp E GROUP BY E.did",
		// Aggregate in WHERE.
		"SELECT E.did FROM Emp E WHERE AVG(E.sal) > 5",
		// SELECT * with GROUP BY.
		"SELECT * FROM Emp E GROUP BY E.did",
		// Unknown aggregate.
		"SELECT MEDIAN(E.sal) FROM Emp E",
		// SUM(*) invalid.
		"SELECT SUM(*) FROM Emp E",
	}
	for _, src := range cases {
		if _, err := bind(t, src); err == nil {
			t.Errorf("bind(%q) should fail", src)
		}
	}
}

// TestBindNotAndAggregateInWhere: NOT binds to a negation, and an
// aggregate in WHERE is refused by name.
func TestBindNotAndAggregateInWhere(t *testing.T) {
	b, err := bind(t, "SELECT E.eid FROM Emp E WHERE NOT (E.sal > 5)")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := b.Preds[0].(expr.Not); !ok || n.Kid.String() != "E.sal > 5" {
		t.Errorf("WHERE NOT (...) bound to %v", b.Preds[0])
	}
	_, err = bind(t, "SELECT E.did FROM Emp E WHERE AVG(E.sal) > 5")
	if want := `sql: aggregate "AVG" not allowed here`; err == nil || err.Error() != want {
		t.Errorf("aggregate in WHERE: err %v, want %q", err, want)
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	if _, err := bind(t, "SELECT did FROM Emp E, Dept D"); err == nil {
		t.Error("ambiguous did must error")
	}
}

func TestBindUnknownThings(t *testing.T) {
	if _, err := bind(t, "SELECT x FROM Emp E"); err == nil {
		t.Error("unknown column")
	}
	if _, err := bind(t, "SELECT a FROM Nope"); err == nil {
		t.Error("unknown relation")
	}
}

func TestBindDistinctStar(t *testing.T) {
	b, err := bind(t, "SELECT DISTINCT * FROM Emp E")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Distinct || b.Proj != nil {
		t.Error("distinct star")
	}
}

func TestBindDefaultOutputNames(t *testing.T) {
	b, err := bind(t, "SELECT E.sal + 1 FROM Emp E")
	if err != nil {
		t.Fatal(err)
	}
	if b.Proj[0].Name == "" {
		t.Error("computed output needs a derived name")
	}
}
