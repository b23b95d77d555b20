package filterjoin_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	filterjoin "filterjoin"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sql"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// invariantDB builds a one-table database for the epoch/invalidation
// tests.
func invariantDB(t *testing.T) *filterjoin.DB {
	t.Helper()
	db := filterjoin.Open(filterjoin.Config{})
	addT(t, db)
	return db
}

func addT(t *testing.T, db *filterjoin.DB) {
	t.Helper()
	if err := db.ExecScript(`
		CREATE TABLE T (a int, b int);
		INSERT INTO T VALUES (1, 10), (2, 20);
	`); err != nil {
		t.Fatal(err)
	}
}

// kvTable builds a two-int-column table named name holding (1, 1).
func kvTable(name string) *storage.Table {
	tbl := storage.NewTable(name, kvSchema(name))
	tbl.MustInsert(value.NewInt(1), value.NewInt(1))
	return tbl
}

func kvSchema(name string) *schema.Schema {
	return schema.New(
		schema.Column{Table: name, Name: "k", Type: value.KindInt},
		schema.Column{Table: name, Name: "v", Type: value.KindInt},
	)
}

// TestEveryMutationBumpsEpoch walks all eleven write entry points, each
// with a succeeding input and — where it can fail after parsing — a
// failing one, and holds every one of them to the write span's
// contract: the epoch advances, the plan cache is cleared, and the next
// SELECT (a statement cached just before) re-plans against, and answers
// from, the new state. A rejected statement pays the same bump: the
// span does not ask whether anything was mutated.
func TestEveryMutationBumpsEpoch(t *testing.T) {
	const primed = "SELECT T.a FROM T"
	sql1 := func(text string) func(*filterjoin.DB) error {
		return func(db *filterjoin.DB) error { _, err := db.Exec(text); return err }
	}
	cases := []struct {
		name    string
		setup   func(*testing.T) *filterjoin.DB // default invariantDB
		do      func(*filterjoin.DB) error
		wantErr bool
		probe   string // default primed
		rows    int
	}{
		{name: "create table", do: sql1("CREATE TABLE U (x int)"), probe: "SELECT U.x FROM U", rows: 0},
		{name: "create table/duplicate", do: sql1("CREATE TABLE T (a int)"), wantErr: true, rows: 2},
		{name: "create index", do: sql1("CREATE INDEX t_a ON T (a)"), rows: 2},
		{name: "create index/unknown column", do: sql1("CREATE INDEX t_z ON T (z)"), wantErr: true, rows: 2},
		{name: "create view", do: sql1("CREATE VIEW V AS (SELECT T.a FROM T)"), probe: "SELECT V.a FROM V", rows: 2},
		{name: "create view/unknown relation", do: sql1("CREATE VIEW V AS (SELECT N.a FROM N)"), wantErr: true, rows: 2},
		{name: "insert", do: sql1("INSERT INTO T VALUES (3, 30)"), rows: 3},
		{name: "insert/partial", do: sql1("INSERT INTO T VALUES (3, 30), (4.5, 40)"), wantErr: true, rows: 3},
		{name: "LoadCSV", do: func(db *filterjoin.DB) error {
			_, err := db.LoadCSV("T", strings.NewReader("5,50\n6,60\n"))
			return err
		}, rows: 4},
		{name: "LoadCSV/partial", do: func(db *filterjoin.DB) error {
			_, err := db.LoadCSV("T", strings.NewReader("5,50\nnot-an-int,60\n"))
			return err
		}, wantErr: true, rows: 3},
		{name: "LoadCSV/unknown table", do: func(db *filterjoin.DB) error {
			_, err := db.LoadCSV("N", strings.NewReader("5,50\n"))
			return err
		}, wantErr: true, rows: 2},
		{name: "RegisterTable", do: func(db *filterjoin.DB) error {
			db.RegisterTable(kvTable("L"))
			return nil
		}, probe: "SELECT L.k FROM L", rows: 1},
		{name: "RegisterRemoteTable", do: func(db *filterjoin.DB) error {
			db.RegisterRemoteTable(kvTable("R"), 1)
			return nil
		}, probe: "SELECT R.k FROM R", rows: 1},
		{name: "RegisterRemoteView", do: func(db *filterjoin.DB) error {
			return db.RegisterRemoteView("RV", "SELECT T.a FROM T", 1)
		}, probe: "SELECT RV.a FROM RV", rows: 2},
		{name: "RegisterRemoteView/unknown relation", do: func(db *filterjoin.DB) error {
			return db.RegisterRemoteView("RV", "SELECT N.a FROM N", 1)
		}, wantErr: true, rows: 2},
		{name: "RegisterFunc", do: func(db *filterjoin.DB) error {
			db.RegisterFunc("F", kvSchema("F"), []int{0}, func(args value.Row) ([]value.Row, error) {
				return []value.Row{{args[0], args[0]}}, nil
			}, &stats.RelStats{Rows: 100, Cols: []stats.ColStats{{Distinct: 100}, {Distinct: 100}}}, 1)
			return nil
		}, probe: "SELECT T.a, F.v FROM T, F WHERE T.a = F.k", rows: 2},
		{name: "InvalidateCaches", do: func(db *filterjoin.DB) error {
			db.InvalidateCaches()
			return nil
		}, rows: 2},
		{name: "feedback absorption", setup: func(t *testing.T) *filterjoin.DB {
			db := adaptiveDB(t, filterjoin.Config{AdaptiveFeedback: true})
			addT(t, db)
			return db
		}, do: func(db *filterjoin.DB) error {
			_, err := db.Query(correlatedQuery) // misestimated 10x: absorbed after the read span
			return err
		}, rows: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			open := invariantDB
			if tc.setup != nil {
				open = tc.setup
			}
			d := open(t)
			if _, err := d.Query(primed); err != nil {
				t.Fatal(err)
			}
			epoch, clears := d.Engine().Epoch(), d.CacheStats().Clears

			if err := tc.do(d); (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error: %t", err, tc.wantErr)
			}
			if got := d.Engine().Epoch(); got <= epoch {
				t.Errorf("epoch = %d, want > %d", got, epoch)
			}
			if got := d.CacheStats().Clears; got <= clears {
				t.Errorf("plan cache Clears = %d, want > %d", got, clears)
			}
			if r, err := d.Query(primed); err != nil {
				t.Fatal(err)
			} else if r.CacheState != "miss" {
				t.Errorf("statement cached before the mutation: CacheState = %q, want miss", r.CacheState)
			}
			probe := tc.probe
			if probe == "" {
				probe = primed
			}
			r, err := d.Query(probe)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) != tc.rows {
				t.Errorf("%s: %d rows, want %d", probe, len(r.Rows), tc.rows)
			}
		})
	}
}

// TestPlanDoesNotWaitForReaders: the programmatic entry points are read
// spans like any served SELECT. With one SELECT parked mid-execution
// (inside a function relation's body, holding its read span), Plan,
// PlanBlock and QueryBlock from another goroutine must all finish
// before the parked query is released — under the old write-locked
// programmatic path they queued behind it.
func TestPlanDoesNotWaitForReaders(t *testing.T) {
	db := invariantDB(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var enter, unpark sync.Once
	defer unpark.Do(func() { close(release) })
	db.RegisterFunc("F", kvSchema("F"), []int{0}, func(args value.Row) ([]value.Row, error) {
		enter.Do(func() { close(entered) })
		<-release
		return []value.Row{{args[0], args[0]}}, nil
	}, &stats.RelStats{Rows: 100, Cols: []stats.ColStats{{Distinct: 100}, {Distinct: 100}}}, 1)

	block := func() *query.Block {
		st, err := sql.Parse("SELECT T.a FROM T WHERE T.b > 10")
		if err != nil {
			t.Fatal(err)
		}
		b, err := sql.BindSelect(db.Catalog(), st.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	planned, queried := block(), block()

	parked := make(chan error, 1)
	go func() {
		_, err := db.Query("SELECT T.a, F.v FROM T, F WHERE T.a = F.k")
		parked <- err
	}()
	<-entered

	planners := make(chan error, 1)
	go func() {
		planners <- func() error {
			if _, err := db.Plan("SELECT T.a FROM T"); err != nil {
				return err
			}
			if _, err := db.PlanBlock(planned); err != nil {
				return err
			}
			res, err := db.QueryBlock(queried)
			if err == nil && len(res.Rows) != 1 {
				err = errors.New("QueryBlock: wrong row count")
			}
			return err
		}()
	}()
	select {
	case err := <-planners:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Plan/PlanBlock/QueryBlock waited for a parked reader")
	}
	select {
	case err := <-parked:
		t.Fatalf("parked SELECT returned before its release: %v", err)
	default:
	}
	unpark.Do(func() { close(release) })
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
}

// TestInsertErrorStillInvalidates pins the lockepoch error-path
// contract: an INSERT that fails mid-statement has already made its
// earlier rows visible, so the epoch must advance and cached plans must
// be dropped even though the statement returns an error.
func TestInsertErrorStillInvalidates(t *testing.T) {
	db := invariantDB(t)
	if _, err := db.Query("SELECT T.a FROM T"); err != nil {
		t.Fatal(err)
	}
	before := db.Engine().Epoch()
	clearsBefore := db.CacheStats().Clears

	// Row two puts a float into an int column, which the storage layer
	// rejects after row one is already inserted.
	_, err := db.Exec("INSERT INTO T VALUES (3, 30), (4.5, 40)")
	if err == nil {
		t.Fatal("expected the mixed-type INSERT to fail")
	}

	if after := db.Engine().Epoch(); after <= before {
		t.Errorf("epoch = %d after failed INSERT, want > %d: rows inserted before the failure are visible", after, before)
	}
	if clears := db.CacheStats().Clears; clears <= clearsBefore {
		t.Errorf("plan cache Clears = %d, want > %d: stale plans survived the partial mutation", clears, clearsBefore)
	}
	r, err := db.Query("SELECT T.a FROM T WHERE T.a = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Errorf("row inserted before the failure not visible: got %d rows", len(r.Rows))
	}
}

// TestLoadCSVPartialFailureInvalidates pins the same contract for bulk
// loads: a load that parses some rows and then fails has mutated the
// table, so the epoch must advance on the error path too.
func TestLoadCSVPartialFailureInvalidates(t *testing.T) {
	db := invariantDB(t)
	before := db.Engine().Epoch()
	clearsBefore := db.CacheStats().Clears

	n, err := db.LoadCSV("T", strings.NewReader("5,50\nnot-an-int,60\n"))
	if err == nil {
		t.Fatal("expected the malformed CSV load to fail")
	}
	if n != 1 {
		t.Fatalf("loaded %d rows before the failure, want 1", n)
	}
	if after := db.Engine().Epoch(); after <= before {
		t.Errorf("epoch = %d after partial load, want > %d", after, before)
	}
	if clears := db.CacheStats().Clears; clears <= clearsBefore {
		t.Errorf("plan cache Clears = %d, want > %d: stale plans survived the partial load", clears, clearsBefore)
	}
	r, err := db.Query("SELECT T.b FROM T WHERE T.a = 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Errorf("partially loaded row not visible: got %d rows", len(r.Rows))
	}
}

// TestQueryContextCancelled: a cancelled caller context surfaces from
// the serving layer as context.Canceled, not as a hung or completed
// query.
func TestQueryContextCancelled(t *testing.T) {
	db := invariantDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, "SELECT T.a FROM T")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext after cancel: err = %v, want context.Canceled", err)
	}
}
