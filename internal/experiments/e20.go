package experiments

import (
	"fmt"
	"strings"

	filterjoin "filterjoin"
)

// E20 measures adaptive re-optimization (DESIGN.md §12) on an
// adversarial correlated workload: Emp.a and Emp.b are always equal, so
// the independence assumption underestimates sel(a=K AND b=K) by 100x
// (0.01*0.01 vs the true 0.01). Dept is large enough that hashing it
// costs hundreds of page reads, so the static optimizer — sizing the
// probe side at a handful of rows — picks index nested loops into
// Dept's did index; the true 100x row count makes that plan pay a page
// fetch per probe and lose to the hash join it rejected. The experiment
// drives the same query through two engines:
//
//   static    — AdaptiveFeedback off: the misestimated plan, every run.
//   feedback  — AdaptiveFeedback: run 1 feeds actuals back into the
//               catalog stats (epoch bump), run 2 plans from truth.
//
// Hard invariants: both modes produce identical rows, and the feedback
// engine's second run beats the static plan's measured cost. Every cell
// is a count or a cost in Table 1 units, so the report is byte-stable.

const (
	e20Rows  = 40000  // Emp rows
	e20Depts = 100000 // Dept rows
)

// e20DB builds the correlated workload: Emp (e20Rows, a=b always, did in
// [0,200)), Dept (e20Depts rows, unique did, indexed on did).
func e20DB(cfg filterjoin.Config) (*filterjoin.DB, error) {
	db := filterjoin.Open(cfg)
	if err := db.ExecScript(`
		CREATE TABLE Emp (eid int, did int, a int, b int);
		CREATE TABLE Dept (did int, budget int);
		CREATE INDEX dept_did ON Dept (did);
	`); err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("INSERT INTO Emp VALUES ")
	for i := 0; i < e20Rows; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d,%d,%d)", i, i%200, i%100, i%100)
	}
	b.WriteString("; INSERT INTO Dept VALUES ")
	for i := 0; i < e20Depts; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d)", i, 10000+(i*211)%50000)
	}
	b.WriteString(";")
	if err := db.ExecScript(b.String()); err != nil {
		return nil, err
	}
	return db, nil
}

const e20Query = `
	SELECT E.eid, D.budget FROM Emp E, Dept D
	WHERE E.did = D.did AND E.a = 7 AND E.b = 7
	ORDER BY E.eid`

// e20Run executes the query once and reports the result and its total
// measured cost.
func e20Run(db *filterjoin.DB) (*filterjoin.Result, float64, error) {
	res, err := db.Query(e20Query)
	if err != nil {
		return nil, 0, err
	}
	return res, db.TotalCost(res), nil
}

// E20Adaptive runs both modes and checks the feedback contracts.
func E20Adaptive() (*Report, error) {
	r := &Report{
		ID:     "E20",
		Title:  "Adaptive re-optimization: statistics feedback on correlated data",
		Header: []string{"mode", "run", "rows", "cost", "cpu", "pageR", "cache"},
	}
	addRow := func(mode, run string, res *filterjoin.Result, total float64) {
		r.AddRow(mode, run, d(int64(len(res.Rows))), f2(total),
			d(res.Cost.CPUTuples), d(res.Cost.PageReads), res.CacheState)
	}

	// Static baseline: the misestimated plan, twice (second run is the
	// cached steady state every later run would pay).
	static, err := e20DB(filterjoin.Config{})
	if err != nil {
		return nil, fmt.Errorf("E20 static: %w", err)
	}
	s1, sCost1, err := e20Run(static)
	if err != nil {
		return nil, fmt.Errorf("E20 static run 1: %w", err)
	}
	s2, sCost, err := e20Run(static)
	if err != nil {
		return nil, fmt.Errorf("E20 static run 2: %w", err)
	}
	addRow("static", "1", s1, sCost1)
	addRow("static", "2", s2, sCost)

	// Statistics feedback: run 1 absorbs the actuals (epoch bump), run 2
	// plans from corrected statistics and must beat the static plan.
	feedback, err := e20DB(filterjoin.Config{AdaptiveFeedback: true})
	if err != nil {
		return nil, fmt.Errorf("E20 feedback: %w", err)
	}
	epoch0 := feedback.Engine().Epoch()
	f1, fCost1, err := e20Run(feedback)
	if err != nil {
		return nil, fmt.Errorf("E20 feedback run 1: %w", err)
	}
	if feedback.Engine().Epoch() == epoch0 {
		return nil, fmt.Errorf("E20: feedback run did not bump the catalog epoch")
	}
	f2nd, fCost, err := e20Run(feedback)
	if err != nil {
		return nil, fmt.Errorf("E20 feedback run 2: %w", err)
	}
	addRow("feedback", "1", f1, fCost1)
	addRow("feedback", "2", f2nd, fCost)
	if f2nd.CacheState != "miss" {
		return nil, fmt.Errorf("E20: run after feedback served a stale cached plan (cache=%s)", f2nd.CacheState)
	}

	// Row identity across every mode and run.
	want := rowSetKey(s1)
	for name, res := range map[string]*filterjoin.Result{
		"static run 2": s2, "feedback run 1": f1, "feedback run 2": f2nd,
	} {
		if rowSetKey(res) != want {
			return nil, fmt.Errorf("E20: %s rows differ from static baseline", name)
		}
	}

	// The second run of a misestimated query must pick the better plan.
	if fCost >= sCost {
		return nil, fmt.Errorf("E20: feedback-informed plan (cost %.2f) does not beat the static plan (%.2f)", fCost, sCost)
	}
	r.AddNote("feedback run 2 cost %.2f vs static %.2f (%.1fx cheaper)", fCost, sCost, sCost/fCost)

	return r, nil
}

// rowSetKey renders a result's rows order-insensitively (the ORDER BY
// makes order deterministic, but the key must not depend on it).
func rowSetKey(res *filterjoin.Result) string {
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		keys[i] = row.FullKey()
	}
	// Rows arrive sorted by eid via the ORDER BY; keep as-is.
	return strings.Join(keys, "|")
}
