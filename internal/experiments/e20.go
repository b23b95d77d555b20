package experiments

import (
	"fmt"
	"strings"
	"time"

	filterjoin "filterjoin"
)

// E20 measures adaptive re-optimization (DESIGN.md §15) on an
// adversarial correlated workload: Emp.a and Emp.b are always equal, so
// the independence assumption underestimates sel(a=K AND b=K) by 100x
// (0.01*0.01 vs the true 0.01). Dept is large enough that hashing it
// costs hundreds of page reads, so the static optimizer — sizing the
// probe side at a handful of rows — picks index nested loops into
// Dept's did index; the true 100x row count makes that plan pay a page
// fetch per probe and lose to the hash join it rejected. The experiment
// drives the same query through three engines:
//
//   static    — adaptive features off: the misestimated plan, every run.
//   replan    — AdaptiveReplan: the Sort guard aborts the run mid-way
//               and the remainder re-optimizes with observed counts.
//   feedback  — AdaptiveFeedback: run 1 feeds actuals back into the
//               catalog stats (epoch bump), run 2 plans from truth.
//
// Hard invariants: all modes produce identical rows; the feedback
// engine's second run beats the static plan's measured cost; and the
// replan run charges Replans >= 1.
//
// Knobs (for CI smoke runs): FILTERJOIN_E20_ROWS sets the Emp row count
// (default 40000), FILTERJOIN_E20_DEPTS the Dept row count (default
// 100000); shrink both together to keep the plan-flip geometry.

// e20DB builds the correlated workload: Emp (nRows, a=b always, did in
// [0,200)), Dept (nDepts rows, unique did, indexed on did).
func e20DB(cfg filterjoin.Config, nRows, nDepts int) (*filterjoin.DB, error) {
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
	for i := 0; i < nRows; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d,%d,%d)", i, i%200, i%100, i%100)
	}
	b.WriteString("; INSERT INTO Dept VALUES ")
	for i := 0; i < nDepts; i++ {
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

// e20Run executes the query once and reports rows, measured counters,
// total cost, and wall time.
func e20Run(db *filterjoin.DB) (*filterjoin.Result, float64, time.Duration, error) {
	start := time.Now()
	res, err := db.Query(e20Query)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, db.TotalCost(res), time.Since(start), nil
}

// E20Adaptive runs the three modes and checks the adaptive contracts.
func E20Adaptive() (*Report, error) {
	nRows := e18Env("FILTERJOIN_E20_ROWS", 40000)
	nDepts := e18Env("FILTERJOIN_E20_DEPTS", 100000)

	r := &Report{
		ID:    "E20",
		Title: "Adaptive re-optimization: feedback and mid-run replanning on correlated data",
		Header: []string{"mode", "run", "rows", "cost", "cpu", "pageR",
			"replans", "cache", "ms"},
	}
	addRow := func(mode, run string, res *filterjoin.Result, total float64, wall time.Duration) {
		r.AddRow(mode, run, d(int64(len(res.Rows))), f2(total),
			d(res.Cost.CPUTuples), d(res.Cost.PageReads),
			d(res.Cost.Replans), res.CacheState,
			fmt.Sprintf("%.1f", float64(wall.Microseconds())/1000))
	}

	// Static baseline: the misestimated plan, twice (second run is the
	// cached steady state every later run would pay).
	static, err := e20DB(filterjoin.Config{BatchSize: 1024}, nRows, nDepts)
	if err != nil {
		return nil, fmt.Errorf("E20 static: %w", err)
	}
	s1, sCost1, sWall1, err := e20Run(static)
	if err != nil {
		return nil, fmt.Errorf("E20 static run 1: %w", err)
	}
	s2, sCost, sWall, err := e20Run(static)
	if err != nil {
		return nil, fmt.Errorf("E20 static run 2: %w", err)
	}
	addRow("static", "1", s1, sCost1, sWall1)
	addRow("static", "2", s2, sCost, sWall)
	if s1.Cost.Replans != 0 || s2.Cost.Replans != 0 {
		return nil, fmt.Errorf("E20: static engine charged replans")
	}

	// Mid-run replanning: the first run must abandon the misestimated
	// plan at a materialization guard and still produce the exact rows.
	replan, err := e20DB(filterjoin.Config{BatchSize: 1024, AdaptiveReplan: true}, nRows, nDepts)
	if err != nil {
		return nil, fmt.Errorf("E20 replan: %w", err)
	}
	p1, pCost, pWall, err := e20Run(replan)
	if err != nil {
		return nil, fmt.Errorf("E20 replan run: %w", err)
	}
	addRow("replan", "1", p1, pCost, pWall)
	if p1.Cost.Replans == 0 {
		return nil, fmt.Errorf("E20: 100x misestimate did not trigger a mid-run replan")
	}
	if p1.ReplannedFrom == nil || p1.ReplanInfo == nil {
		return nil, fmt.Errorf("E20: replan run does not report ReplannedFrom/ReplanInfo")
	}

	// Statistics feedback: run 1 absorbs the actuals (epoch bump), run 2
	// plans from corrected statistics and must beat the static plan.
	feedback, err := e20DB(filterjoin.Config{BatchSize: 1024, AdaptiveFeedback: true}, nRows, nDepts)
	if err != nil {
		return nil, fmt.Errorf("E20 feedback: %w", err)
	}
	epoch0 := feedback.Engine().Epoch()
	f1, fCost1, fWall1, err := e20Run(feedback)
	if err != nil {
		return nil, fmt.Errorf("E20 feedback run 1: %w", err)
	}
	if feedback.Engine().Epoch() == epoch0 {
		return nil, fmt.Errorf("E20: feedback run did not bump the catalog epoch")
	}
	f2nd, fCost, fWall, err := e20Run(feedback)
	if err != nil {
		return nil, fmt.Errorf("E20 feedback run 2: %w", err)
	}
	addRow("feedback", "1", f1, fCost1, fWall1)
	addRow("feedback", "2", f2nd, fCost, fWall)
	if f2nd.CacheState != "miss" {
		return nil, fmt.Errorf("E20: run after feedback served a stale cached plan (cache=%s)", f2nd.CacheState)
	}

	// Row identity across every mode and run.
	want := rowSetKey(s1)
	for name, res := range map[string]*filterjoin.Result{
		"static run 2": s2, "replan": p1, "feedback run 1": f1, "feedback run 2": f2nd,
	} {
		if rowSetKey(res) != want {
			return nil, fmt.Errorf("E20: %s rows differ from static baseline", name)
		}
	}

	// The second run of a misestimated query must pick the better plan.
	if fCost >= sCost {
		return nil, fmt.Errorf("E20: feedback-informed plan (cost %.2f) does not beat the static plan (%.2f)", fCost, sCost)
	}
	r.AddNote("feedback run 2 cost %.2f vs static %.2f (%.1fx cheaper); replan run cost %.2f",
		fCost, sCost, sCost/fCost, pCost)
	if fWall >= sWall1 {
		r.AddNote("WARNING: feedback run 2 wall %.1fms did not beat static run 1 wall %.1fms (both optimize; warn-only, wall is noisy)",
			float64(fWall.Microseconds())/1000, float64(sWall1.Microseconds())/1000)
	}
	if pCost >= sCost1 {
		r.AddNote("WARNING: replan run cost %.2f did not beat the static first run %.2f (abandoned work included)",
			pCost, sCost1)
	}

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
