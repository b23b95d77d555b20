package filterjoin_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/stats"
)

// TestWriterDuringScans: one session loops one-row INSERTs while three
// loop the reads the mixed read/write benchmark issues — the magic-view
// join, the point join, a COUNT(*) scan — against a 5 000-row Emp. Every
// answer is checked against what plain Go computes from the generated
// data, and the entry's collect counter shows the INSERTs were folded
// into the statistics: a full Collect happens on first touch and once
// per histogram bucket's worth of inserted rows, not once per INSERT.
func TestWriterDuringScans(t *testing.T) {
	const nEmp, nDept, inserts = 5000, 50, 200
	db := filterjoin.Open(filterjoin.Config{})
	if err := db.ExecScript(servingSchemaSQL); err != nil {
		t.Fatal(err)
	}
	did, sal, age := make([]int, nEmp), make([]int, nEmp), make([]int, nEmp)
	var b strings.Builder
	b.WriteString("INSERT INTO Emp VALUES ")
	for i := 0; i < nEmp; i++ {
		did[i], sal[i], age[i] = i*nDept/nEmp, 1000+(i*37)%5000, 20+(i*7)%40
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d,%d,%d.0,%d)", i, did[i], sal[i], age[i])
	}
	b.WriteString("; INSERT INTO Dept VALUES ")
	for d := 0; d < nDept; d++ {
		if d > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d,%d)", d, 20000+(d*211)%70000)
	}
	if err := db.ExecScript(b.String() + ";"); err != nil {
		t.Fatal(err)
	}

	// The writer's rows go to a department Dept does not list, with an
	// age below every generated one: the two joins keep their answers
	// and the scan counts exactly the inserted rows.
	var started, done atomic.Int64
	stop := make(chan struct{})
	errs := make([]error, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		sess := db.NewSession()
		for i := 0; i < inserts; i++ {
			started.Add(1)
			if _, err := sess.Exec(fmt.Sprintf("INSERT INTO Emp VALUES (%d,%d,0.0,0)", nEmp+i, nDept)); err != nil {
				errs[0] = err
				return
			}
			done.Add(1)
		}
	}()

	magicView := func(sess *filterjoin.Session, i int) error {
		d, a := (i*7)%nDept, 25+i%30
		sum, n := 0, 0
		for j := range did {
			if did[j] == d {
				sum, n = sum+sal[j], n+1
			}
		}
		wantRows, wantSal := 0, 0
		for j := range did {
			if did[j] == d && age[j] < a && sal[j]*n > sum {
				wantRows, wantSal = wantRows+1, wantSal+sal[j]
			}
		}
		r, err := sess.Query(fmt.Sprintf(`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, Dept D2, DepAvgSal V `+
			`WHERE E.did = D.did AND E.did = D2.did AND E.did = V.did AND E.sal > V.avgsal `+
			`AND E.did = %d AND E.age < %d AND D.budget > 10000 AND D2.budget > 0`, d, a))
		if err != nil {
			return err
		}
		gotSal := 0
		for _, row := range r.Rows {
			gotSal += int(row[1].Float())
		}
		if len(r.Rows) != wantRows || gotSal != wantSal {
			return fmt.Errorf("magic view did=%d age<%d: %d rows, salaries %d; want %d, %d", d, a, len(r.Rows), gotSal, wantRows, wantSal)
		}
		return nil
	}
	pointJoin := func(sess *filterjoin.Session, i int) error {
		d := (i * 11) % nDept
		wantRows, wantEid := 0, 0
		for j := range did {
			if did[j] == d {
				wantRows, wantEid = wantRows+1, wantEid+j
			}
		}
		r, err := sess.Query(fmt.Sprintf(`SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did AND E.did = %d AND D.budget > 10000`, d))
		if err != nil {
			return err
		}
		gotEid := 0
		for _, row := range r.Rows {
			gotEid += int(row[0].Int())
		}
		if len(r.Rows) != wantRows || gotEid != wantEid {
			return fmt.Errorf("point join did=%d: %d rows, eids %d; want %d, %d", d, len(r.Rows), gotEid, wantRows, wantEid)
		}
		return nil
	}
	countScan := func(sess *filterjoin.Session, _ int) error {
		lo := done.Load()
		r, err := sess.Query(`SELECT COUNT(*) FROM Emp E WHERE E.age < 20 AND E.sal < 500.0`)
		if err != nil {
			return err
		}
		hi := started.Load()
		if got := r.Rows[0][0].Int(); got < lo || got > hi {
			return fmt.Errorf("count scan saw %d inserted rows; %d were in before it began, %d begun when it ended", got, lo, hi)
		}
		return nil
	}
	for w, read := range []func(*filterjoin.Session, int) error{magicView, pointJoin, countScan} {
		wg.Add(1)
		go func(w int, read func(*filterjoin.Session, int) error) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; ; i++ {
				if err := read(sess, i); err != nil {
					errs[w] = err
					return
				}
				select {
				case <-stop:
					if i >= 20 {
						return
					}
				default:
				}
			}
		}(w+1, read)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	ent, err := db.Catalog().Get("Emp")
	if err != nil {
		t.Fatal(err)
	}
	checkStatsExact(t, ent)
	if n, limit := ent.Collects(), 1+inserts/(nEmp/stats.DefaultHistogramBuckets)+1; n < 1 || n > limit {
		t.Errorf("%d full collects of Emp for %d one-row INSERTs, want 1..%d", n, inserts, limit)
	}
}
