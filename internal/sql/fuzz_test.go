package sql

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse. No input may panic, and each
// SELECT it accepts must format to a fixpoint that keeps its literals:
// FormatSelect is the plan-cache key, so a statement whose key parses
// back to a different statement would be served another one's plan.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`SELECT T.a / 2 FROM T`,
		`SELECT T.a / 2.0 FROM T`,
		`SELECT 'a', 'b' FROM T`,
		`SELECT 'a'', ''b' FROM T`,
		`SELECT NULL, T.a + NULL, NOT (NULL), SUM(NULL) AS s FROM T
		 WHERE T.a = NULL AND NULL < T.b OR NULL GROUP BY T.a HAVING s > NULL`,
		`INSERT INTO T VALUES (NULL, 1, -2.5e-7, 'it''s', true)`,
		`SELECT T.a FROM T WHERE T.a < ? AND T.b = ?`,
		`SELECT T.a, $2 FROM T WHERE T.a < $1`,
		`SELECT T.a FROM T UNION SELECT S.a FROM S`,
		`SELECT T.a FROM T UNION ALL SELECT S.a FROM S WHERE S.a - -3 > 1e21`,
		`EXPLAIN SELECT T.a FROM T WHERE T.a > -0.0`,
		`EXPLAIN ANALYZE SELECT DISTINCT E.did, COUNT(*) AS n FROM Emp E
		 WHERE NOT (E.age < 30) GROUP BY E.did HAVING n > 2 ORDER BY E.did DESC LIMIT 5`,
		`CREATE VIEW V AS (SELECT E.did, AVG(E.sal) AS a FROM Emp E GROUP BY E.did)`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		st, err := Parse(text)
		if err != nil {
			return
		}
		var sels []*SelectStmt
		switch x := st.(type) {
		case *SelectStmt:
			sels = []*SelectStmt{x}
		case *UnionStmt:
			sels = x.Selects
		case *ExplainStmt:
			sels = []*SelectStmt{x.Select}
		case *CreateView:
			sels = []*SelectStmt{x.Select}
		}
		for _, sel := range sels {
			key := FormatSelect(sel)
			again, err := Parse(key)
			if err != nil {
				t.Fatalf("%q formats to %q, which does not parse: %v", text, key, err)
			}
			sel2, ok := again.(*SelectStmt)
			if !ok {
				t.Fatalf("%q formats to %q, which parses to a %T", text, key, again)
			}
			if got := FormatSelect(sel2); got != key {
				t.Fatalf("%q: FormatSelect is not a fixpoint: %q then %q", text, key, got)
			}
			if a, b := litKinds(sel), litKinds(sel2); a != b {
				t.Fatalf("%q formats to %q: literal kinds %q became %q", text, key, a, b)
			}
		}
	})
}

// litKinds lists the kinds of st's literals in clause order.
func litKinds(st *SelectStmt) string {
	var b strings.Builder
	anyClause(st, func(e AExpr) bool {
		if l, ok := e.(ALit); ok {
			b.WriteString(l.V.Kind().String() + " ")
		}
		return false
	})
	return b.String()
}
