package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// schemaSQL is the E18 catalog shape every workload runs on: Emp/Dept,
// the emp_did index, and the DepAvgSal view of the paper's Fig 1.
const schemaSQL = `
CREATE TABLE Emp (eid int, did int, sal float, age int);
CREATE TABLE Dept (did int, budget int);
CREATE INDEX emp_did ON Emp (did);
CREATE VIEW DepAvgSal AS
  (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did);
`

// dataset is the generated Emp/Dept contents, kept as plain slices: the
// engine is loaded from them through SQL text and the oracle answers
// every fixed query family from them without touching the engine.
type dataset struct {
	nDept  int
	did    []int     // Emp.did, row i has eid i; clustered as in E18, equal-sized departments
	sal    []float64 // Emp.sal, integer-valued so AVG/SUM are order-independent
	age    []int     // Emp.age, uniform 20..59
	budget []int     // Dept.budget, row d has did d
	avg    []float64 // DepAvgSal.avgsal per did (NaN for an empty department)
	byDid  [][]int   // Emp rows per did
}

// generate draws a dataset that depends only on (seed, nEmp, nDept).
func generate(seed int64, nEmp, nDept int) *dataset {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(nEmp)))
	d := &dataset{
		nDept:  nDept,
		did:    make([]int, nEmp),
		sal:    make([]float64, nEmp),
		age:    make([]int, nEmp),
		budget: make([]int, nDept),
		avg:    make([]float64, nDept),
		byDid:  make([][]int, nDept),
	}
	sum := make([]float64, nDept)
	for i := 0; i < nEmp; i++ {
		d.did[i] = i * nDept / nEmp
		d.sal[i] = float64(1000 + rng.Intn(5000))
		d.age[i] = 20 + rng.Intn(40)
		d.byDid[d.did[i]] = append(d.byDid[d.did[i]], i)
		sum[d.did[i]] += d.sal[i]
	}
	// Exactly a tenth of the departments are rich, so the Fig 1 query's
	// result size does not swing with the seed; which ones is seeded.
	rich := map[int]bool{}
	for _, k := range rng.Perm(nDept)[:nDept/10] {
		rich[k] = true
	}
	for k := 0; k < nDept; k++ {
		d.budget[k] = 20000 + rng.Intn(70000)
		if rich[k] {
			d.budget[k] = 150000
		}
		d.avg[k] = math.NaN()
		if n := len(d.byDid[k]); n > 0 {
			d.avg[k] = sum[k] / float64(n)
		}
	}
	return d
}

// loadChunk is the number of rows per generated INSERT statement.
const loadChunk = 5000

// loadSQL renders the dataset as INSERT statements.
func (d *dataset) loadSQL() []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			b.WriteString(";")
			out = append(out, b.String())
			b.Reset()
		}
	}
	for i := range d.did {
		if i%loadChunk == 0 {
			flush()
			b.WriteString("INSERT INTO Emp VALUES ")
		} else {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d,%d.0,%d)", i, d.did[i], int(d.sal[i]), d.age[i])
	}
	flush()
	for k, bud := range d.budget {
		if k%loadChunk == 0 {
			flush()
			b.WriteString("INSERT INTO Dept VALUES ")
		} else {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d,%d)", k, bud)
	}
	flush()
	return out
}

// answer is what a correct reply must look like: the row count and an
// order-independent checksum (the wrapping sum of per-row hashes).
type answer struct {
	rows int
	sum  uint64
}

// rowHash is FNV-1a over the IEEE bits of the row's numeric columns.
func rowHash(vals ...float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h = (h ^ (bits >> s & 0xff)) * 1099511628211
		}
	}
	return h
}

func (a *answer) add(vals ...float64) {
	a.rows++
	a.sum += rowHash(vals...)
}

// The oracle: each fixed query family answered in plain Go.

// magicView is the serve_hit magic-view join: employees of one
// department, younger than ageLT, earning above the department average.
func (d *dataset) magicView(did, ageLT int) answer {
	var a answer
	for _, i := range d.byDid[did] {
		if d.age[i] < ageLT && d.sal[i] > d.avg[did] {
			a.add(float64(did), d.sal[i], d.avg[did])
		}
	}
	return a
}

// pointJoin is the 2-relation point join: every eid of one department.
func (d *dataset) pointJoin(did int) answer {
	var a answer
	for _, i := range d.byDid[did] {
		a.add(float64(i))
	}
	return a
}

// preparedJoin is the prepared statement: (eid, sal) of one department's
// employees younger than ageLT.
func (d *dataset) preparedJoin(ageLT, did int) answer {
	var a answer
	for _, i := range d.byDid[did] {
		if d.age[i] < ageLT {
			a.add(float64(i), d.sal[i])
		}
	}
	return a
}

// scanCount is the scan_filter family: COUNT(*) under four conjuncts.
func (d *dataset) scanCount(ageGE, ageLT, salLT, didNE int) answer {
	n := 0
	for i := range d.did {
		if d.age[i] >= ageGE && d.age[i] < ageLT && d.sal[i] < float64(salLT) && d.did[i] != didNE {
			n++
		}
	}
	var a answer
	a.add(float64(n))
	return a
}

// fig1 is the paper's Fig 1 query: young employees of big-budget
// departments earning above their department's average.
func (d *dataset) fig1(ageLT, budgetGT int) answer {
	var a answer
	for i, k := range d.did {
		if d.age[i] < ageLT && d.budget[k] > budgetGT && d.sal[i] > d.avg[k] {
			a.add(float64(k), d.sal[i], d.avg[k])
		}
	}
	return a
}

// deptTotals is the hash join + GROUP BY family: head count and payroll
// per department above a budget.
func (d *dataset) deptTotals(budgetGT int) answer {
	var a answer
	for k, emps := range d.byDid {
		if len(emps) == 0 || d.budget[k] <= budgetGT {
			continue
		}
		s := 0.0
		for _, i := range emps {
			s += d.sal[i]
		}
		a.add(float64(k), float64(len(emps)), s)
	}
	return a
}

type opKind uint8

const (
	opQuery    opKind = iota // ad-hoc SELECT text
	opPrepared               // the session's prepared statement with args
	opInsert                 // one-row INSERT
)

// op is one operation of a session's stream.
type op struct {
	kind  opKind
	class int // index into workload.classes
	text  string
	args  []any
	want  answer
	// oracle is false for plan_cold's generated shapes, whose reference
	// answer comes from a second engine in the check pass.
	oracle bool
}

// preparedSQL is the one prepared statement of the E18 mix.
const preparedSQL = `SELECT E.eid, E.sal FROM Emp E, Dept D WHERE E.did = D.did AND E.age < ? AND E.did = ?`

// workload is one named traffic mix: a catalog size, a client count, and
// a fixed cyclic operation stream per session.
type workload struct {
	name     string
	nEmp     int
	nDept    int
	sessions int
	classes  []string // template classes, for the cold rounds
	data     *dataset
	load     []string // the INSERT statements that load data, rendered once
	streams  [][]op
	byClass  [][]*op // operations per template class, built on first use
	traceOps int     // operations of the traced pass
	dop2     bool    // also measure exec.dop2_speedup (needs a second engine)
}

// sizes of the two catalogs and of mixed_rw's Emp; -quick divides them.
type sizes struct {
	smallEmp, smallDept int
	largeEmp, largeDept int
	mixedEmp, mixedDept int
	serveCycle          int // serve_hit / mixed_rw operations per session cycle
	coldShapes          int // plan_cold distinct shapes
	coldTrace           int // plan_cold operations in the traced pass
	scanCycle           int
	joinCycle           int
}

var fullSizes = sizes{
	smallEmp: 3000, smallDept: 100,
	largeEmp: 200_000, largeDept: 1000,
	mixedEmp: 30_000, mixedDept: 1000,
	serveCycle: 500, coldShapes: 1024, coldTrace: 320, scanCycle: 64, joinCycle: 40,
}

var quickSizes = sizes{
	smallEmp: 600, smallDept: 20,
	largeEmp: 4000, largeDept: 40,
	mixedEmp: 1500, mixedDept: 50,
	serveCycle: 50, coldShapes: 24, coldTrace: 24, scanCycle: 8, joinCycle: 10,
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"serve_hit", "plan_cold", "scan_filter", "join_agg", "mixed_rw"}

// buildWorkload generates one workload's data and streams from the seed.
func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	w, err := buildStreams(name, seed, sz)
	if err != nil {
		return nil, err
	}
	w.load = w.data.loadSQL()
	// The traced pass covers one cycle of every stream; plan_cold's is
	// cut to a count that still exceeds the plan cache.
	for _, st := range w.streams {
		w.traceOps += len(st)
	}
	if name == "plan_cold" && w.traceOps > sz.coldTrace {
		w.traceOps = sz.coldTrace
	}
	w.dop2 = name == "join_agg"
	return w, nil
}

func buildStreams(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case "serve_hit":
		w := &workload{name: name, nEmp: sz.smallEmp, nDept: sz.smallDept, sessions: 1,
			classes: []string{"magic4", "point2", "prepared2"}}
		w.data = generate(seed, w.nEmp, w.nDept)
		for s := 0; s < w.sessions; s++ {
			w.streams = append(w.streams, serveStream(w.data, seed, s, sz.serveCycle))
		}
		return w, nil
	case "plan_cold":
		w := &workload{name: name, nEmp: sz.smallEmp, nDept: sz.smallDept, sessions: 1}
		w.data = generate(seed, w.nEmp, w.nDept)
		shapes, classes := coldShapes(w.data, seed, sz.coldShapes)
		w.classes = classes
		// The session cycles through all the shapes, four times as many
		// as the plan cache holds.
		w.streams = [][]op{shapes}
		return w, nil
	case "scan_filter":
		w := &workload{name: name, nEmp: sz.largeEmp, nDept: sz.largeDept, sessions: 1,
			classes: []string{"scan4"}}
		w.data = generate(seed, w.nEmp, w.nDept)
		rng := streamRNG(seed, 0, 3)
		st := make([]op, sz.scanCycle)
		for i := range st {
			st[i] = scanOp(w.data, rng, 0)
		}
		w.streams = [][]op{st}
		return w, nil
	case "join_agg":
		w := &workload{name: name, nEmp: sz.largeEmp, nDept: sz.largeDept, sessions: 1,
			classes: []string{"fig1", "groupby"}}
		w.data = generate(seed, w.nEmp, w.nDept)
		w.streams = [][]op{joinStream(w.data, seed, sz.joinCycle)}
		return w, nil
	case "mixed_rw":
		w := &workload{name: name, nEmp: sz.mixedEmp, nDept: sz.mixedDept, sessions: 2,
			classes: []string{"magic4", "point2", "prepared2", "scan4", "insert"}}
		w.data = generate(seed, w.nEmp, w.nDept)
		for s := 0; s < w.sessions; s++ {
			w.streams = append(w.streams, serveStream(w.data, seed, s, sz.serveCycle))
		}
		mixWrites(w, seed)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// streamRNG seeds one session's stream: a pure function of (seed,
// session, salt), so every op is a pure function of (seed, session, i).
func streamRNG(seed int64, session, salt int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(session)*104729 + int64(salt)))
}

// serveStream is the E18 mix: of every ten operations eight are the
// 4-relation magic-view join restricted to one department, one is the
// 2-relation point join, one the prepared statement. Ages 22..29 stay
// inside one selectivity class, so the stream needs few cache keys.
func serveStream(d *dataset, seed int64, session, n int) []op {
	rng := streamRNG(seed, session, 1)
	st := make([]op, n)
	ageAt := rng.Intn(8)
	for i := range st {
		did := rng.Intn(d.nDept)
		// Ages walk 22..29 in turn from a seeded start, so every
		// template sees each age equally often whatever the seed.
		age := 22 + (ageAt+i/10)%8
		switch i % 10 {
		case 0:
			st[i] = op{kind: opPrepared, class: 2, args: []any{age, did},
				want: d.preparedJoin(age, did), oracle: true}
		case 1:
			st[i] = op{kind: opQuery, class: 1, oracle: true, want: d.pointJoin(did),
				text: fmt.Sprintf(`SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did AND E.did = %d AND D.budget > 10000`, did)}
		default:
			st[i] = op{kind: opQuery, class: 0, oracle: true, want: d.magicView(did, age),
				text: fmt.Sprintf(`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, Dept D2, DepAvgSal V `+
					`WHERE E.did = D.did AND E.did = D2.did AND E.did = V.did AND E.sal > V.avgsal `+
					`AND E.did = %d AND E.age < %d AND D.budget > 10000 AND D2.budget > 0`, did, age)}
		}
	}
	return st
}

// scanOp draws one scan_filter query. Every literal moves inside one
// class of the Fig 5 grid (all four conjuncts keep more than 60 % of the
// rows), so after the first query the plan is always cached.
func scanOp(d *dataset, rng *rand.Rand, class int) op {
	ageGE, ageLT := 25+rng.Intn(5), 50+rng.Intn(5)
	salLT := 5000 + rng.Intn(400)
	didNE := rng.Intn(d.nDept)
	text := fmt.Sprintf(`SELECT COUNT(*) FROM Emp E WHERE E.age >= %d AND E.age < %d AND E.sal < %d.0 AND E.did <> %d`,
		ageGE, ageLT, salLT, didNE)
	return op{kind: opQuery, class: class, text: text, oracle: true,
		want: d.scanCount(ageGE, ageLT, salLT, didNE)}
}

// joinStream is 70 % the Fig 1 query at scale and 30 % a hash join with
// GROUP BY. The literals that vary (the budget thresholds) move inside
// one selectivity class and, as budgets are either below 90 000 or
// 150 000, barely change the work: every operation of a class costs the
// same, so p50 and the tail each sit inside one class.
func joinStream(d *dataset, seed int64, n int) []op {
	rng := streamRNG(seed, 0, 4)
	st := make([]op, n)
	for i := range st {
		if i%10 < 7 {
			ageLT, budgetGT := 28, 100_000+rng.Intn(40_000)
			st[i] = op{kind: opQuery, class: 0, oracle: true, want: d.fig1(ageLT, budgetGT),
				text: fmt.Sprintf(`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V `+
					`WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal AND E.age < %d AND D.budget > %d`,
					ageLT, budgetGT)}
		} else {
			budgetGT := 40_000 + rng.Intn(1000)
			st[i] = op{kind: opQuery, class: 1, oracle: true, want: d.deptTotals(budgetGT),
				text: fmt.Sprintf(`SELECT D.did, COUNT(*), SUM(E.sal) FROM Emp E, Dept D `+
					`WHERE E.did = D.did AND D.budget > %d GROUP BY D.did`, budgetGT)}
		}
	}
	return st
}

// writeEvery and scanEvery are mixed_rw's frozen mix: session 0 replaces
// every 50th operation by a one-row INSERT, session 1 every 25th by the
// scan_filter query.
const (
	writeEvery = 50
	scanEvery  = 25
)

// mixWrites turns serve_hit's streams into mixed_rw's. Inserted rows go
// to department nDept, which no Dept row and no query names, and carry
// age 0, which fails the scan's first conjunct: every read keeps the
// answer the oracle computed from the generated data.
func mixWrites(w *workload, seed int64) {
	rng := streamRNG(seed, 1, 5)
	for i := writeEvery - 1; i < len(w.streams[0]); i += writeEvery {
		w.streams[0][i] = op{kind: opInsert, class: 4,
			text: fmt.Sprintf(`INSERT INTO Emp VALUES (%d,%d,0.0,0);`, w.nEmp+i, w.nDept)}
	}
	for i := scanEvery - 1; i < len(w.streams[1]); i += scanEvery {
		w.streams[1][i] = scanOp(w.data, rng, 3)
	}
}

// coldShapes generates n distinct query shapes for plan_cold: Emp joined
// to 1..5 Dept aliases, with or without the DepAvgSal view, 3..7
// relations uniformly, each with its own select list and predicate
// subset. Distinct shapes normalize to distinct texts, so each is its
// own plan-cache key. Classes are the relation counts.
func coldShapes(d *dataset, seed int64, n int) ([]op, []string) {
	rng := streamRNG(seed, 0, 2)
	classes := []string{"rels3", "rels4", "rels5", "rels6", "rels7"}
	seen := map[string]bool{}
	out := make([]op, 0, n)
	for len(out) < n {
		nRel := 3 + len(out)%5
		withView := nRel == 7 || rng.Intn(2) == 0
		nDeptAlias := nRel - 1
		if withView {
			nDeptAlias--
		}
		var sel, from, where []string
		from = append(from, "Emp E")
		cols := []string{"E.eid", "E.did", "E.sal", "E.age"}
		for k := 1; k <= nDeptAlias; k++ {
			from = append(from, fmt.Sprintf("Dept D%d", k))
			where = append(where, fmt.Sprintf("E.did = D%d.did", k))
			cols = append(cols, fmt.Sprintf("D%d.budget", k))
			if rng.Intn(2) == 0 {
				where = append(where, fmt.Sprintf("D%d.budget > %d", k, rng.Intn(30000)))
			}
		}
		if withView {
			from = append(from, "DepAvgSal V")
			where = append(where, "E.did = V.did")
			cols = append(cols, "V.avgsal")
			if rng.Intn(2) == 0 {
				where = append(where, "E.sal > V.avgsal")
			}
		}
		// The department restriction keeps execution small, as in the
		// serving mix; planning is what this workload pays for.
		where = append(where, fmt.Sprintf("E.did = %d", rng.Intn(d.nDept)))
		if rng.Intn(2) == 0 {
			where = append(where, fmt.Sprintf("E.age < %d", 30+rng.Intn(25)))
		}
		if rng.Intn(2) == 0 {
			where = append(where, fmt.Sprintf("E.sal > %d.0", 1000+rng.Intn(3000)))
		}
		for _, c := range cols {
			if rng.Intn(2) == 0 {
				sel = append(sel, c)
			}
		}
		if len(sel) == 0 {
			sel = append(sel, cols[rng.Intn(len(cols))])
		}
		sig := shapeSignature(sel, from, where)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, op{kind: opQuery, class: nRel - 3,
			text: "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ") +
				" WHERE " + strings.Join(where, " AND ")})
	}
	return out, classes
}

// shapeSignature identifies a shape up to its literals, which the
// engine's normalizer erases: two shapes with one signature would share
// a plan-cache key.
func shapeSignature(sel, from, where []string) string {
	preds := make([]string, len(where))
	for i, p := range where {
		preds[i] = strings.TrimRight(p, "0123456789.")
	}
	sort.Strings(preds)
	return strings.Join(sel, ",") + "|" + strings.Join(from, ",") + "|" + strings.Join(preds, "&")
}
