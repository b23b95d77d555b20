// Command magicopt is an interactive explainer: it executes a SQL
// script and, for every SELECT, shows the plan chosen by the cost-based
// optimizer with the Filter Join available, the plan without it, both
// estimated and measured costs, and — when a Filter Join over a view is
// chosen — the equivalent magic-sets rewriting rendered as SQL (the
// paper's Fig 2).
//
// Usage:
//
//	magicopt -demo                 # built-in Fig 1 demo
//	magicopt -f script.sql         # run a script
//	echo "SELECT ..." | magicopt   # read from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	filterjoin "filterjoin"
	"filterjoin/internal/core"
	"filterjoin/internal/magic"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/sql"
)

func main() {
	demo := flag.Bool("demo", false, "load the built-in Fig 1 demo data before running")
	file := flag.String("f", "", "SQL script file (default: stdin)")
	analyze := flag.Bool("analyze", false, "print EXPLAIN ANALYZE for each SELECT: per-operator est/act rows, cost, and wall time")
	errRatio := flag.Float64("err-ratio", 0, "flag operators whose est/act row ratio exceeds this (default 10, with -analyze)")
	trace := flag.Bool("trace", false, "print the optimizer search trace (DP subsets, candidates kept/pruned, coster cache)")
	traceJSON := flag.Bool("trace-json", false, "like -trace, but render the trace as JSON")
	flag.Parse()

	var src string
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	case *demo && flag.NArg() == 0 && isTerminalLike():
		src = demoQuery
	default:
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		src = string(b)
		if strings.TrimSpace(src) == "" && *demo {
			src = demoQuery
		}
	}

	dbFJ := filterjoin.Open(filterjoin.Config{})
	dbPlain := filterjoin.Open(filterjoin.Config{DisableFilterJoin: true})
	if *demo {
		if err := loadDemo(dbFJ); err != nil {
			fatal(err)
		}
		if err := loadDemo(dbPlain); err != nil {
			fatal(err)
		}
	}

	opts := cliOpts{
		analyze:   *analyze,
		errRatio:  *errRatio,
		trace:     *trace,
		traceJSON: *traceJSON,
	}

	stmts, err := sql.ParseScript(src)
	if err != nil {
		fatal(err)
	}
	for _, st := range stmts {
		switch s := st.(type) {
		case *sql.SelectStmt:
			if err := explainSelect(dbFJ, dbPlain, s, opts); err != nil {
				fatal(err)
			}
		case *sql.ExplainStmt:
			// An explicit EXPLAIN [ANALYZE] statement: print its plan
			// text rather than routing through the side-by-side demo.
			res, err := execStmt(dbFJ, st)
			if err != nil {
				fatal(err)
			}
			for _, r := range res.Rows {
				fmt.Println(r[0].Str())
			}
		default:
			if err := runDDL(dbFJ, dbPlain, st); err != nil {
				fatal(err)
			}
		}
	}
}

// cliOpts carries the observability flags into explainSelect.
type cliOpts struct {
	analyze   bool
	errRatio  float64
	trace     bool
	traceJSON bool
}

func isTerminalLike() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func runDDL(dbFJ, dbPlain *filterjoin.DB, st sql.Statement) error {
	for _, db := range []*filterjoin.DB{dbFJ, dbPlain} {
		if _, err := execStmt(db, st); err != nil {
			return err
		}
	}
	return nil
}

// execStmt re-renders a parsed statement through the DB facade. The
// facade parses text, so we keep the original round trip simple by
// sharing the parsed statement via a tiny adapter.
func execStmt(db *filterjoin.DB, st sql.Statement) (*filterjoin.Result, error) {
	return db.ExecParsed(st)
}

func explainSelect(dbFJ, dbPlain *filterjoin.DB, sel *sql.SelectStmt, opts cliOpts) error {
	block, err := sql.BindSelect(dbFJ.Catalog(), sel)
	if err != nil {
		return err
	}
	text, err := magic.RenderBlock(dbFJ.Catalog(), block)
	if err != nil {
		return err
	}
	fmt.Printf("----------------------------------------------------------------\n")
	fmt.Printf("QUERY:\n%s\n\n", text)

	var tracer *opt.CollectingTracer
	if opts.trace || opts.traceJSON {
		tracer = &opt.CollectingTracer{}
		dbFJ.Optimizer().Tracer = tracer
		defer func() { dbFJ.Optimizer().Tracer = nil }()
	}
	pFJ, err := dbFJ.PlanBlock(block)
	if err != nil {
		return err
	}
	if tracer != nil {
		if opts.traceJSON {
			js, err := tracer.JSON()
			if err != nil {
				return err
			}
			fmt.Printf("OPTIMIZER TRACE (filter join enabled):\n%s\n\n", js)
		} else {
			fmt.Printf("OPTIMIZER TRACE (filter join enabled):\n%s%s\n",
				tracer.Text(), tracer.Summary())
		}
	}
	fmt.Printf("PLAN (filter join enabled):\n%s\n", plan.Format(pFJ, dbFJ.Model()))

	blockPlain, err := sql.BindSelect(dbPlain.Catalog(), sel)
	if err != nil {
		return err
	}
	pPlain, err := dbPlain.PlanBlock(blockPlain)
	if err != nil {
		return err
	}
	fmt.Printf("PLAN (filter join disabled):\n%s\n", plan.Format(pPlain, dbPlain.Model()))

	resFJ, err := dbFJ.RunPlan(pFJ)
	if err != nil {
		return err
	}
	resPlain, err := dbPlain.RunPlan(pPlain)
	if err != nil {
		return err
	}
	if opts.analyze {
		aopts := plan.AnalyzeOptions{ShowTime: true, ErrRatio: opts.errRatio}
		fmt.Printf("EXPLAIN ANALYZE (filter join enabled):\n%s\n",
			plan.FormatAnalyze(pFJ, dbFJ.Model(), resFJ.Stats(), resFJ.Cost, aopts))
		fmt.Printf("EXPLAIN ANALYZE (filter join disabled):\n%s\n",
			plan.FormatAnalyze(pPlain, dbPlain.Model(), resPlain.Stats(), resPlain.Cost, aopts))
	}
	fmt.Printf("rows: %d   measured cost: with FJ %.1f, without %.1f\n\n",
		len(resFJ.Rows), dbFJ.TotalCost(resFJ), dbPlain.TotalCost(resPlain))

	if fjNode := pFJ.Find("FilterJoin"); fjNode != nil {
		if ch, ok := fjNode.Extra.(*core.Choice); ok {
			if err := renderMagicSQL(dbFJ, block, ch, fjNode); err == nil {
				return nil
			}
		}
	}
	return nil
}

// renderMagicSQL replays the chosen Filter Join as a textual magic
// rewriting (Fig 2) when the inner is a view.
func renderMagicSQL(db *filterjoin.DB, block *query.Block, ch *core.Choice, fjNode *plan.Node) error {
	e, err := db.Catalog().Get(ch.InnerName)
	if err != nil {
		return err
	}
	if e.ViewDef == nil {
		return nil
	}
	sips := fjNode.Children[0].Rels.Members()
	rw, err := magic.Rewrite(db.Catalog(), block, ch.InnerIndex, sips)
	if err != nil {
		return err
	}
	text, err := rw.SQL()
	if err != nil {
		return err
	}
	fmt.Printf("EQUIVALENT MAGIC REWRITING (Fig 2 form):\n%s\n", text)
	return nil
}

func loadDemo(db *filterjoin.DB) error {
	if err := db.ExecScript(`
		CREATE TABLE Emp (eid int, did int, sal float, age int);
		CREATE TABLE Dept (did int, budget int);
		CREATE INDEX emp_did ON Emp (did);
		CREATE INDEX dept_did ON Dept (did);
		CREATE VIEW DepAvgSal AS
		  (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did);
	`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	const nEmp, nDept = 8000, 160
	var sb strings.Builder
	sb.WriteString("INSERT INTO Emp VALUES ")
	for i := 0; i < nEmp; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		age := 30 + rng.Intn(35)
		if rng.Float64() < 0.25 {
			age = 20 + rng.Intn(10)
		}
		fmt.Fprintf(&sb, "(%d,%d,%d.0,%d)", i, i*nDept/nEmp, 1000+rng.Intn(5000), age)
	}
	if err := db.ExecScript(sb.String()); err != nil {
		return err
	}
	sb.Reset()
	sb.WriteString("INSERT INTO Dept VALUES ")
	for d := 0; d < nDept; d++ {
		if d > 0 {
			sb.WriteString(",")
		}
		budget := 10000 + rng.Intn(90000)
		if rng.Float64() < 0.06 {
			budget = 100001 + rng.Intn(300000)
		}
		fmt.Fprintf(&sb, "(%d,%d)", d, budget)
	}
	return db.ExecScript(sb.String())
}

const demoQuery = `
SELECT E.did, E.sal, V.avgsal
FROM Emp E, Dept D, DepAvgSal V
WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
  AND E.age < 30 AND D.budget > 100000;
`

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "magicopt:", err)
	os.Exit(1)
}
