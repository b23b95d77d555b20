package filterjoin_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	filterjoin "filterjoin"
	"filterjoin/internal/catalog"
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

// growT appends rows (3, 30) .. (n, 10n) to invariantDB's T and runs a
// query, so T's statistics are collected over n ascending rows and the
// next few INSERTs are folded into them rather than re-collected.
func growT(t *testing.T, db *filterjoin.DB, n int) *catalog.Entry {
	t.Helper()
	var b strings.Builder
	b.WriteString("INSERT INTO T VALUES ")
	for i := 3; i <= n; i++ {
		if i > 3 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %d)", i, 10*i)
	}
	if _, err := db.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT T.a FROM T WHERE T.a = 1"); err != nil {
		t.Fatal(err)
	}
	ent, err := db.Catalog().Get("T")
	if err != nil {
		t.Fatal(err)
	}
	return ent
}

// checkStatsExact holds the entry's current statistics to a fresh
// Collect of its table on every field an INSERT fold keeps exact.
func checkStatsExact(t *testing.T, ent *catalog.Entry) {
	t.Helper()
	got, want := ent.Stats(), stats.Collect(ent.Table)
	if got.Rows != want.Rows {
		t.Errorf("Rows = %g, Collect says %g", got.Rows, want.Rows)
	}
	for c := range want.Cols {
		g, w := got.Cols[c], want.Cols[c]
		if g.Distinct != w.Distinct || g.NullFrac != w.NullFrac || g.Min != w.Min || g.Max != w.Max ||
			g.HasRange != w.HasRange || g.Sorted != w.Sorted {
			t.Errorf("column %d: statistics %+v, Collect says %+v", c, g, w)
		}
		if err := g.Hist.CheckInvariants(); err != nil {
			t.Errorf("column %d: %v", c, err)
		}
	}
}

// TestEveryMutationBumpsEpoch walks all eleven write entry points, each
// with a succeeding input and — where it can fail after parsing — a
// failing one, and holds every one of them to the write span's
// contract: the epoch advances, the plan cache is cleared, and the next
// SELECT (a statement cached just before) re-plans against, and answers
// from, the new state. A rejected statement pays the same bump: the
// span does not ask whether anything was mutated. Three sessions loop a
// statement of their own while each write runs: under -race a
// storage mutation left outside its span races with them. A span nested
// in a span on the case's path trips a 20 s watchdog that panics with
// the case's name instead of hanging the run.
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
			defer time.AfterFunc(20*time.Second, func() {
				panic(t.Name() + " still running after 20s: a span nested in a span?")
			}).Stop()
			open := invariantDB
			if tc.setup != nil {
				open = tc.setup
			}
			d := open(t)
			if _, err := d.Query(primed); err != nil {
				t.Fatal(err)
			}
			epoch, clears := d.Engine().Epoch(), d.CacheStats().Clears

			stop := make(chan struct{})
			var started, readers sync.WaitGroup
			// Equality predicates: planning each one looks T's indexes up.
			for _, q := range []string{"SELECT T.a FROM T WHERE T.a = 1", "SELECT T.b FROM T WHERE T.a = 2", "SELECT T.a, T.b FROM T WHERE T.b = 20"} {
				s := d.NewSession()
				started.Add(1)
				readers.Add(1)
				go func() {
					defer readers.Done()
					for n := 0; ; n++ {
						_, err := s.Query(q)
						if n == 0 {
							started.Done()
						}
						if err != nil {
							t.Errorf("reader %q: %v", q, err)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			started.Wait()
			err := tc.do(d)
			close(stop)
			readers.Wait()
			if (err != nil) != tc.wantErr {
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
	select {
	case <-entered:
	case err := <-parked:
		t.Fatalf("SELECT over F returned before it parked: %v", err)
	}

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

// TestInsertErrorStillInvalidates pins the write span's error path: an
// INSERT that fails mid-statement has already made its earlier rows
// visible, so the epoch must advance and cached plans must be dropped
// even though the statement returns an error.
func TestInsertErrorStillInvalidates(t *testing.T) {
	db := invariantDB(t)
	ent := growT(t, db, 200)
	if _, err := db.Query("SELECT T.a FROM T"); err != nil {
		t.Fatal(err)
	}
	before := db.Engine().Epoch()
	clearsBefore := db.CacheStats().Clears

	// Row two puts a float into an int column, which the storage layer
	// rejects after row one is already inserted.
	_, err := db.Exec("INSERT INTO T VALUES (300, 30), (4.5, 40)")
	if err == nil {
		t.Fatal("expected the mixed-type INSERT to fail")
	}
	// The statistics took in exactly the row the table kept, without a
	// second Collect.
	checkStatsExact(t, ent)
	if n := ent.Collects(); n != 1 {
		t.Errorf("%d full collects after the failed INSERT, want 1", n)
	}

	if after := db.Engine().Epoch(); after <= before {
		t.Errorf("epoch = %d after failed INSERT, want > %d: rows inserted before the failure are visible", after, before)
	}
	if clears := db.CacheStats().Clears; clears <= clearsBefore {
		t.Errorf("plan cache Clears = %d, want > %d: stale plans survived the partial mutation", clears, clearsBefore)
	}
	r, err := db.Query("SELECT T.a FROM T WHERE T.a = 300")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Errorf("row inserted before the failure not visible: got %d rows", len(r.Rows))
	}
}

// TestInsertFoldEdgeRows runs the INSERTs whose fold is easiest to get
// wrong through the engine and holds the statistics the next query sees
// to a fresh Collect, along with how many Collects it took to get there.
func TestInsertFoldEdgeRows(t *testing.T) {
	for _, tc := range []struct {
		name     string
		insert   string
		collects int // after the INSERT and the Stats() that follows
		check    func(*testing.T, *stats.RelStats)
	}{
		{name: "all-NULL row", insert: "INSERT INTO T VALUES (NULL, NULL)", collects: 1,
			check: func(t *testing.T, st *stats.RelStats) {
				if st.Cols[0].NullFrac != 1.0/201 || st.Cols[0].Distinct != 200 {
					t.Errorf("a: %+v", st.Cols[0])
				}
			}},
		{name: "value that breaks Sorted", insert: "INSERT INTO T VALUES (150, 5)", collects: 1,
			check: func(t *testing.T, st *stats.RelStats) {
				if st.Cols[0].Sorted || st.Cols[1].Sorted {
					t.Error("150 after 200 left a column Sorted")
				}
			}},
		{name: "repeat of min and max", insert: "INSERT INTO T VALUES (1, 2000)", collects: 1,
			check: func(t *testing.T, st *stats.RelStats) {
				if st.Cols[0].Distinct != 200 || st.Cols[1].Distinct != 200 {
					t.Errorf("a repeated value bumped Distinct: %g, %g", st.Cols[0].Distinct, st.Cols[1].Distinct)
				}
			}},
		{name: "new min and new max", insert: "INSERT INTO T VALUES (-5, 9999)", collects: 1,
			check: func(t *testing.T, st *stats.RelStats) {
				if st.Cols[0].Min != -5 || st.Cols[1].Max != 9999 || st.Cols[0].Distinct != 201 {
					t.Errorf("a: %+v, b: %+v", st.Cols[0], st.Cols[1])
				}
			}},
		{name: "more than a bucket's worth", collects: 2,
			insert: "INSERT INTO T VALUES (201, 1), (202, 1), (203, 1), (204, 1), (205, 1), (206, 1), (207, 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := invariantDB(t)
			ent := growT(t, db, 200)
			base := ent.Stats()
			if _, err := db.Exec(tc.insert); err != nil {
				t.Fatal(err)
			}
			checkStatsExact(t, ent)
			if n := ent.Collects(); n != tc.collects {
				t.Errorf("%d full collects, want %d", n, tc.collects)
			}
			if tc.check != nil {
				tc.check(t, ent.Stats())
			}
			if base.Rows != 200 || base.Cols[0].Distinct != 200 || !base.Cols[0].Sorted {
				t.Errorf("the statistics published before the INSERT changed: %+v", base)
			}
		})
	}

	// A table whose statistics were collected while it was empty: the
	// first value of a column is not something the fold models.
	t.Run("collected-but-empty table", func(t *testing.T) {
		db := invariantDB(t)
		if err := db.ExecScript("CREATE TABLE E (a int, s string); SELECT E.a FROM E;"); err != nil {
			t.Fatal(err)
		}
		ent, err := db.Catalog().Get("E")
		if err != nil {
			t.Fatal(err)
		}
		if ent.Stats().Rows != 0 || ent.Collects() != 1 {
			t.Fatalf("empty E: %+v after %d collects", ent.Stats(), ent.Collects())
		}
		if _, err := db.Exec("INSERT INTO E VALUES (1, 'x')"); err != nil {
			t.Fatal(err)
		}
		checkStatsExact(t, ent)
		if n := ent.Collects(); n != 2 {
			t.Errorf("%d full collects, want 2", n)
		}
	})
}

// TestInvalidateCachesFoldsStorageLoads: rows appended through the
// storage API reach the collected statistics at InvalidateCaches — the
// case its doc names — and a table that did not grow is not touched.
func TestInvalidateCachesFoldsStorageLoads(t *testing.T) {
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript("CREATE TABLE L (a int, b int);"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO L VALUES (%d, %d)", i, i%10)); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT L.a FROM L WHERE L.b = 3"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	ent, err := db.Catalog().Get("L")
	if err != nil {
		t.Fatal(err)
	}

	before, collects := ent.Stats(), ent.Collects()
	db.InvalidateCaches()
	if ent.Stats() != before || ent.Collects() != collects {
		t.Errorf("InvalidateCaches on an unchanged table replaced its statistics (%d -> %d collects)", collects, ent.Collects())
	}

	for i := 100; i < 1000; i++ {
		ent.Table.MustInsert(value.NewInt(int64(i)), value.NewInt(int64(i%10)))
	}
	db.InvalidateCaches()
	if rows := ent.Stats().Rows; rows != 1000 {
		t.Errorf("statistics describe %g rows after the bulk load, want 1000", rows)
	}
	checkStatsExact(t, ent)
	p, err := db.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows < 90 || p.Rows > 110 {
		t.Errorf("b = 3 estimated at %g rows of 1000, want about 100", p.Rows)
	}
}

// TestLoadCSVPartialFailureInvalidates pins the same contract for bulk
// loads: a load that parses some rows and then fails has mutated the
// table, so the epoch must advance on the error path too.
func TestLoadCSVPartialFailureInvalidates(t *testing.T) {
	db := invariantDB(t)
	ent := growT(t, db, 200)
	before := db.Engine().Epoch()
	clearsBefore := db.CacheStats().Clears

	n, err := db.LoadCSV("T", strings.NewReader("500,50\nnot-an-int,60\n"))
	if err == nil {
		t.Fatal("expected the malformed CSV load to fail")
	}
	if n != 1 {
		t.Fatalf("loaded %d rows before the failure, want 1", n)
	}
	checkStatsExact(t, ent)
	if n := ent.Collects(); n != 1 {
		t.Errorf("%d full collects after the partial load, want 1", n)
	}
	if after := db.Engine().Epoch(); after <= before {
		t.Errorf("epoch = %d after partial load, want > %d", after, before)
	}
	if clears := db.CacheStats().Clears; clears <= clearsBefore {
		t.Errorf("plan cache Clears = %d, want > %d: stale plans survived the partial load", clears, clearsBefore)
	}
	r, err := db.Query("SELECT T.b FROM T WHERE T.a = 500")
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
