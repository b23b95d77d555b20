package filterjoin_test

import (
	"fmt"
	"strings"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/sql"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/value"
)

// buildFig1SQL loads the paper's Fig 1 schema and data through the SQL
// front-end.
func buildFig1SQL(t testing.TB, db *filterjoin.DB, nEmp, nDept int) {
	t.Helper()
	if err := db.ExecScript(`
		CREATE TABLE Emp (eid int, did int, sal float, age int);
		CREATE TABLE Dept (did int, budget int);
		CREATE INDEX emp_did ON Emp (did);
		CREATE INDEX dept_did ON Dept (did);
		CREATE VIEW DepAvgSal AS
		  (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did);
	`); err != nil {
		t.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO Emp VALUES ")
	for i := 0; i < nEmp; i++ {
		if i > 0 {
			ins.WriteString(",")
		}
		age := 45
		if i%4 == 0 {
			age = 25
		}
		fmt.Fprintf(&ins, "(%d, %d, %d.0, %d)", i, i*nDept/nEmp, 1000+(i*37)%5000, age)
	}
	if err := db.ExecScript(ins.String()); err != nil {
		t.Fatal(err)
	}
	ins.Reset()
	ins.WriteString("INSERT INTO Dept VALUES ")
	for d := 0; d < nDept; d++ {
		if d > 0 {
			ins.WriteString(",")
		}
		budget := 50000
		if d%10 == 0 {
			budget = 200000
		}
		fmt.Fprintf(&ins, "(%d, %d)", d, budget)
	}
	if err := db.ExecScript(ins.String()); err != nil {
		t.Fatal(err)
	}
}

const fig1SQL = `
	SELECT E.did, E.sal, V.avgsal
	FROM Emp E, Dept D, DepAvgSal V
	WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
	  AND E.age < 30 AND D.budget > 100000`

// checkSQL fails t unless rows answer text, a SELECT over db's catalog,
// as SQL does (sqlref).
func checkSQL(t testing.TB, db *filterjoin.DB, text string, rows []value.Row) {
	t.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sql.BindSelect(db.Catalog(), st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlref.Check(db.Catalog(), b, rows); err != nil {
		t.Errorf("%s: %v", text, err)
	}
}

func TestSQLFig1AgreesAcrossOptimizers(t *testing.T) {
	dbFJ := filterjoin.Open(filterjoin.Config{})
	buildFig1SQL(t, dbFJ, 4000, 80)
	dbPlain := filterjoin.Open(filterjoin.Config{DisableFilterJoin: true})
	buildFig1SQL(t, dbPlain, 4000, 80)

	rFJ, err := dbFJ.Query(fig1SQL)
	if err != nil {
		t.Fatal(err)
	}
	rPlain, err := dbPlain.Query(fig1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(rFJ.Rows) == 0 {
		t.Fatal("query returned no rows; workload is degenerate")
	}
	checkSQL(t, dbFJ, fig1SQL, rFJ.Rows)
	checkSQL(t, dbPlain, fig1SQL, rPlain.Rows)
}

func TestExplainMentionsPlanShape(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	buildFig1SQL(t, db, 4000, 80)
	txt, err := db.Explain(fig1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "TableScan") {
		t.Fatalf("explain output lacks scans:\n%s", txt)
	}
}
