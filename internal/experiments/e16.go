package experiments

import (
	"fmt"
	"runtime"
	"time"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// E16DOPs is the degree-of-parallelism sweep E16 measures. The
// filterbench -parallel flag runs just this experiment.
var E16DOPs = []int{1, 2, 4, 8}

// parallelCatalog builds the scan- and join-heavy workload: two wide-ish
// base tables big enough that per-morsel and per-partition work dominates
// goroutine coordination.
func parallelCatalog() *catalog.Catalog {
	cat := catalog.New()
	mk := func(name string, rows, keyRange, seed int) {
		t := storage.NewTable(name, schema.New(
			schema.Column{Table: name, Name: "k", Type: value.KindInt},
			schema.Column{Table: name, Name: "v", Type: value.KindInt},
		))
		for i := 0; i < rows; i++ {
			t.MustInsert(
				value.NewInt(int64((i*seed+i/7)%keyRange)),
				value.NewInt(int64(i%1000)),
			)
		}
		cat.AddTable(t)
	}
	mk("Big", 60000, 20000, 13)
	mk("Probe", 45000, 20000, 29)
	return cat
}

// bestOf returns the minimum wall-clock of n runs of f, in seconds, along
// with the last run's returned counter and row count. Minimum-of-n is the
// standard way to strip scheduler noise from a cold-ish measurement.
func bestOf(n int, f func() (int, cost.Counter, error)) (float64, int, cost.Counter, error) {
	best := time.Duration(1<<62 - 1)
	var rows int
	var c cost.Counter
	for i := 0; i < n; i++ {
		start := time.Now()
		r, cc, err := f()
		if err != nil {
			return 0, 0, cost.Counter{}, err
		}
		if el := time.Since(start); el < best {
			best = el
		}
		rows, c = r, cc
	}
	return best.Seconds(), rows, c, nil
}

// E16ParallelExecution measures intra-query parallelism: each workload
// runs at every degree of parallelism in E16DOPs, and the report shows
// wall-clock, speedup over DOP 1, and the measured cost counter total —
// which must be bit-identical at every DOP, because workers charge
// exactly the serial per-row and per-page units and exchange
// coordination is cost-free by convention (DESIGN.md §9).
func E16ParallelExecution() (*Report, error) {
	model := cost.DefaultModel()
	cat := parallelCatalog()

	scanHeavy := func() *query.Block {
		return &query.Block{
			Rels: []query.RelRef{{Name: "Big"}},
			Preds: []expr.Expr{
				expr.NewCmp(expr.LT, expr.NewCol(1, "Big.v"), expr.Int(450)),
			},
		}
	}
	joinHeavy := func() *query.Block {
		return &query.Block{
			Rels: []query.RelRef{{Name: "Big"}, {Name: "Probe"}},
			Preds: []expr.Expr{
				expr.Eq(expr.NewCol(0, "Big.k"), expr.NewCol(2, "Probe.k")),
			},
		}
	}

	r := &Report{
		ID:    "E16",
		Title: "Intra-query parallelism: wall-clock vs cost parity across DOP",
		Header: []string{"workload", "dop", "wall ms", "speedup",
			"meas total", "rows", "parity"},
	}

	type execWorkload struct {
		name     string
		block    func() *query.Block
		disabled []string
	}
	// merge/nlj/indexnl are disabled on the join workload so the plan is
	// guaranteed to route through the partitioned parallel hash join.
	workloads := []execWorkload{
		{"scan-heavy", scanHeavy, nil},
		{"join-heavy", joinHeavy, []string{"merge", "nlj", "indexnl"}},
	}
	for _, w := range workloads {
		var baseWall float64
		var baseCost cost.Counter
		var baseRows int
		for _, dop := range E16DOPs {
			o := optimizer(cat, model, nil, w.disabled...)
			o.DegreeOfParallelism = dop
			o.BatchSize = exec.DefaultBatchSize
			p, err := o.OptimizeBlock(w.block())
			if err != nil {
				return nil, fmt.Errorf("E16 %s dop=%d: %w", w.name, dop, err)
			}
			wall, rows, c, err := bestOf(3, func() (int, cost.Counter, error) {
				ctx := exec.NewContext()
				ctx.BatchSize = exec.DefaultBatchSize
				n, err := exec.Count(ctx, p.Make())
				return n, *ctx.Counter, err
			})
			if err != nil {
				return nil, fmt.Errorf("E16 %s dop=%d: %w", w.name, dop, err)
			}
			parity := true
			if dop == 1 {
				baseWall, baseCost, baseRows = wall, c, rows
			} else {
				parity = c == baseCost && rows == baseRows
				if !parity {
					return nil, fmt.Errorf("E16 %s dop=%d: cost/row parity broken: %s / %d rows vs serial %s / %d",
						w.name, dop, c.String(), rows, baseCost.String(), baseRows)
				}
			}
			r.AddRow(w.name, d(int64(dop)), f2(wall*1000), f2(baseWall/wall),
				f1(model.Total(c)), d(int64(rows)), yesNo(parity))
		}
	}

	// Coster-heavy: optimization time of the Fig 1 query with the Filter
	// Join registered and a cold coster cache — dominated by the restricted
	// -view sampling that runs concurrently when DOP > 1. Parity here is the
	// plan's estimated total: sampling on forked optimizers must land on
	// the identical coster and therefore the identical plan cost.
	fig1, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		return nil, err
	}
	var baseWall, baseEst float64
	for _, dop := range E16DOPs {
		var est float64
		wall, _, _, err := bestOf(3, func() (int, cost.Counter, error) {
			o := optimizer(fig1, model, core.NewMethod(core.Options{}))
			o.DegreeOfParallelism = dop
			p, err := o.OptimizeBlock(datagen.Fig1Query())
			if err != nil {
				return 0, cost.Counter{}, err
			}
			est = p.Total(model)
			return 0, cost.Counter{}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("E16 coster-heavy dop=%d: %w", dop, err)
		}
		parity := true
		if dop == 1 {
			baseWall, baseEst = wall, est
		} else {
			parity = est == baseEst
			if !parity {
				return nil, fmt.Errorf("E16 coster-heavy dop=%d: plan estimate %.3f differs from serial %.3f",
					dop, est, baseEst)
			}
		}
		r.AddRow("coster-heavy", d(int64(dop)), f2(wall*1000), f2(baseWall/wall),
			f1(est), "-", yesNo(parity))
	}

	r.AddNote("measured on GOMAXPROCS=%d / %d CPU(s); speedup is wall-clock vs DOP 1, best of 3 — parallel speedup needs free cores to materialize, and cost parity holds on any machine", runtime.GOMAXPROCS(0), runtime.NumCPU())
	r.AddNote("'meas total' is the model total of the executed cost counter; identical across DOP because workers charge the serial units and partition/merge coordination is free by convention (DESIGN.md §9)")
	return r, nil
}
