package main

// layers.go is the one file of the benchmark that reaches below the
// public facade: every call into an internal package lives here, so a
// change to a layer's API has one place to follow.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	filterjoin "filterjoin"
	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/plancache"
	"filterjoin/internal/query"
	"filterjoin/internal/sql"
	"filterjoin/internal/stats"
	"filterjoin/internal/value"
)

// engineDefaults reports the executor settings Open(Config{}) resolves
// to in this process, for the fingerprint.
func engineDefaults() (batch int, kernels bool) {
	return exec.EnvBatchSize(), exec.EnvKernels()
}

// engineSnapshot is the engine-side state the timed run takes deltas of.
type engineSnapshot struct {
	cache plancache.Stats
	epoch uint64
}

// since is the traffic between two snapshots.
func (a engineSnapshot) since(b engineSnapshot) engineSnapshot {
	return engineSnapshot{epoch: a.epoch - b.epoch, cache: plancache.Stats{
		Hits: a.cache.Hits - b.cache.Hits, Misses: a.cache.Misses - b.cache.Misses,
		Evictions: a.cache.Evictions - b.cache.Evictions, Clears: a.cache.Clears - b.cache.Clears}}
}

// plus adds two stretches of traffic.
func (a engineSnapshot) plus(b engineSnapshot) engineSnapshot {
	return engineSnapshot{epoch: a.epoch + b.epoch, cache: plancache.Stats{
		Hits: a.cache.Hits + b.cache.Hits, Misses: a.cache.Misses + b.cache.Misses,
		Evictions: a.cache.Evictions + b.cache.Evictions, Clears: a.cache.Clears + b.cache.Clears}}
}

func snapshotEngine(inst *instance) engineSnapshot {
	return engineSnapshot{cache: inst.db.CacheStats(), epoch: inst.db.Engine().Epoch()}
}

// layerShare is one layer's part of the single-session facade latency.
type layerShare struct {
	layer string
	ms    float64 // per SELECT
	share float64 // of the facade latency
}

// tracedOps is the operation list of the traced pass: one cycle of the
// streams, interleaved as the sessions would issue them, cut at the
// workload's fixed count.
func (w *workload) tracedOps() []*op {
	var out []*op
	for i := 0; len(out) < w.traceOps; i++ {
		more := false
		for s := range w.streams {
			if i < len(w.streams[s]) && len(out) < w.traceOps {
				out = append(out, &w.streams[s][i])
				more = true
			}
		}
		if !more {
			break
		}
	}
	return out
}

// replayState is what the layer-by-layer replay needs besides the op.
type replayState struct {
	db       *filterjoin.DB
	cat      *catalog.Catalog
	cache    *plancache.Cache // bench-owned, fed the keys the engine's cache sees
	grid     []float64
	prepared *sql.SelectStmt
	batch    int
	kernels  bool
}

// mallocs reads the cumulative heap allocation count.
func mallocs(ms *runtime.MemStats) uint64 {
	runtime.ReadMemStats(ms)
	return ms.Mallocs
}

// opTrace is what one replayed SELECT contributed to the per-layer sums.
type opTrace struct {
	sqlAllocs, optAllocs, execAllocs uint64
	optimized                        bool
	optNs, drainNs                   int64
	metrics                          struct{ plans, subsets, nested int64 }
	hasFJ                            bool
	fjSelf                           time.Duration
	selfByKind                       map[string]time.Duration
	scanRows, rowsOut                int64
	costUnits, estUnits              float64
	cpuTuples, pageReads             int64
	hit                              bool
	got                              answer
}

// replay runs one SELECT through the layers' public functions in the
// order the engine calls them, a span around each call.
func (st *replayState) replay(tr *tracer, parent, opID int, o *op) (*opTrace, error) {
	var ms runtime.MemStats
	out := &opTrace{selfByKind: map[string]time.Duration{}}
	span := func(name string, f func() error) (time.Duration, error) {
		id := tr.begin(name, parent, opID)
		err := f()
		return tr.end(id), err
	}

	var (
		sel  *sql.SelectStmt
		args []value.Value
	)
	m0 := mallocs(&ms)
	if o.kind == opPrepared {
		sel = st.prepared
		for _, a := range o.args {
			args = append(args, value.NewInt(int64(a.(int))))
		}
	} else if _, err := span("sql.parse", func() error {
		parsed, err := sql.Parse(o.text)
		if err != nil {
			return err
		}
		var ok bool
		if sel, ok = parsed.(*sql.SelectStmt); !ok {
			return fmt.Errorf("not a SELECT: %T", parsed)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var text string
	norm := sel
	_, _ = span("sql.normalize", func() error {
		if !sql.HasParams(sel) {
			norm, args, _ = sql.Normalize(sel)
		}
		text = sql.FormatSelect(norm)
		return nil
	})
	var b *query.Block
	if _, err := span("sql.bind", func() (err error) {
		b, err = sql.BindSelectArgs(st.cat, norm, args)
		return err
	}); err != nil {
		return nil, err
	}
	out.sqlAllocs = mallocs(&ms) - m0

	var key plancache.Key
	_, _ = span("plancache.classify", func() error {
		key = plancache.Key{Text: text, Epoch: st.db.Engine().Epoch(),
			Classes: st.classVector(b, len(args)), Config: "bench"}
		return nil
	})
	var p *plan.Node
	_, _ = span("plancache.get", func() error {
		if ent, ok := st.cache.Get(key); ok {
			p, out.hit = ent.Plan, true
		}
		return nil
	})
	if p == nil {
		proto := st.db.Optimizer()
		f := proto.Fork()
		f.DegreeOfParallelism = proto.DegreeOfParallelism
		f.BatchSize = proto.BatchSize
		m1 := mallocs(&ms)
		d, err := span("opt.optimize", func() (err error) {
			p, err = f.OptimizeBlock(b)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.optAllocs = mallocs(&ms) - m1
		out.optimized, out.optNs = true, int64(d)
		out.metrics.plans = f.Metrics.PlansConsidered
		out.metrics.subsets = f.Metrics.SubsetsExplored
		out.metrics.nested = f.Metrics.NestedOptimizations
		_, _ = span("plancache.put", func() error {
			st.cache.Put(key, &plancache.Entry{Plan: p, Cost: p.Total(st.db.Model())})
			return nil
		})
	}

	var root exec.Operator
	_, _ = span("plan.make", func() error {
		root = p.Make()
		return nil
	})
	// The context Engine.newExecContext builds for Open(Config{}).
	ctx := exec.NewContext()
	ctx.Caller = context.Background()
	ctx.BatchSize = st.batch
	ctx.Kernels = st.kernels
	ctx.Params = args
	var rows []value.Row
	m2 := mallocs(&ms)
	d, err := span("exec.drain", func() (err error) {
		rows, err = exec.Drain(ctx, root)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.execAllocs = mallocs(&ms) - m2
	out.drainNs = int64(d)
	out.got = answerOf(&filterjoin.Result{Rows: rows})
	out.rowsOut = int64(len(rows))

	model := st.db.Model()
	out.costUnits = model.Total(*ctx.Counter)
	out.estUnits = p.Total(model)
	out.cpuTuples, out.pageReads = ctx.Counter.CPUTuples, ctx.Counter.PageReads
	out.hasFJ = p.Find("FilterJoin") != nil
	inPlan := map[*plan.Node]bool{}
	p.Walk(func(n *plan.Node) { inPlan[n] = true })
	for _, s := range ctx.OperatorStats() {
		out.selfByKind[s.Label] += s.SelfWall()
		if n, _ := s.Tag.(*plan.Node); s.Label == "FilterJoin" || !inPlan[n] {
			// The Filter Join's own time plus the sub-plan it planned
			// and ran at Open: what the method costs at run time.
			out.fjSelf += s.SelfWall()
		}
		switch s.Label {
		case "TableScan", "IndexLookup", "ParallelScan":
			out.scanRows += s.Rows
		}
	}
	return out, nil
}

// classVector reproduces the engine's selectivity-class vector (Fig 5
// grid index per bind parameter) from the layers' public functions, so
// the bench-owned cache sees the keys the engine's cache sees.
func (st *replayState) classVector(b *query.Block, nParams int) string {
	if nParams == 0 {
		return ""
	}
	classes := make([]int, nParams)
	for i := range classes {
		classes[i] = -2
	}
	if layout, err := b.Layout(st.cat); err == nil {
		for _, p := range b.Preds {
			set := map[int]bool{}
			expr.CollectParams(p, set)
			if len(set) == 0 {
				continue
			}
			cls := -1
			if rels := query.PredRels(p, layout); rels.Count() == 1 {
				ri := rels.Members()[0]
				if ent, err := st.cat.Get(b.Rels[ri].Name); err == nil {
					if rs := ent.Stats(); rs != nil {
						cls = plancache.Classify(stats.Selectivity(p.Shift(-layout.Offsets[ri]), rs), st.grid)
					}
				}
			}
			for idx := range set {
				if idx >= 0 && idx < nParams {
					classes[idx] = cls
				}
			}
		}
	}
	parts := make([]string, nParams)
	for i, c := range classes {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// rootWall is the inclusive wall time of the executed plan's root
// operator: the facade's own measure of its drain.
func rootWall(res *filterjoin.Result) time.Duration {
	for _, s := range res.Stats() {
		if s.Tag == any(res.Plan) {
			return s.Wall
		}
	}
	return 0
}

// tracedPass is the per-layer run: single session, fixed operation
// count. Every operation goes through the facade inside a span and is
// then replayed layer by layer; the same operations run once more
// untraced, and the difference is the tracing overhead. INSERTs run
// through the facade only (a replay would insert twice) and are
// followed by a timed statistics rebuild.
func tracedPass(w *workload, inst *instance, cfg runConfig, m *metricSet) (attempted, failed int, shares []layerShare, firstErr error) {
	ops := w.tracedOps()
	db, cl := inst.db, inst.clients[0]
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}

	// Untraced reference: the same operations, timed as a whole.
	db.InvalidateCaches()
	var untraced time.Duration
	for _, o := range ops {
		t0 := time.Now()
		_, err := cl.do(o)
		untraced += time.Since(t0)
		attempted++
		if err != nil {
			fail(fmt.Errorf("%s: untraced pass: %q: %w", w.name, o.text, err))
		}
	}

	parsed, err := sql.Parse(preparedSQL)
	if err != nil {
		return attempted, failed + 1, nil, err
	}
	st := &replayState{db: db, cat: db.Catalog(), cache: plancache.New(0),
		grid: core.DefaultSamplePoints, prepared: parsed.(*sql.SelectStmt)}
	st.batch, st.kernels = engineDefaults()
	if fj := db.FilterJoin(); fj != nil && len(fj.Opts.SamplePoints) > 0 {
		st.grid = fj.Opts.SamplePoints
	}
	emp, err := st.cat.Get("Emp")
	if err != nil {
		return attempted, failed + 1, nil, err
	}

	db.InvalidateCaches()
	tr := newTracer()
	pd := passData{untraced: untraced}
	afterWrite := false
	for i, o := range ops {
		root := tr.begin("op", -1, i)
		if o.kind == opInsert {
			id := tr.begin("engine.write", root, i)
			_, err := cl.do(o)
			d := tr.end(id)
			attempted++
			if err != nil {
				fail(fmt.Errorf("%s: traced pass: %q: %w", w.name, o.text, err))
			}
			id = tr.begin("stats.rebuild", root, i)
			emp.Stats()
			rd := tr.end(id)
			pd.rebuildMs = append(pd.rebuildMs, float64(rd)/1e6)
			st.cache.Clear()
			pd.tracedTotal += d + rd
			pd.writeNs += d + rd
			afterWrite = true
			tr.end(root)
			continue
		}
		id := tr.begin("engine.facade", root, i)
		res, err := cl.do(o)
		fd := tr.end(id)
		attempted++
		if err != nil || !check(res, o.want) {
			fail(fmt.Errorf("%s: traced pass: %q: wrong answer or error: %v", w.name, o.text, err))
			tr.end(root)
			continue
		}
		pd.facade += fd
		pd.facadeRoot += rootWall(res)
		pd.tracedTotal += fd
		if afterWrite {
			pd.writeNs += fd
			afterWrite = false
		}

		id = tr.begin("replay", root, i)
		ot, err := st.replay(tr, id, i, o)
		tr.end(id)
		attempted++
		switch {
		case err != nil:
			fail(fmt.Errorf("%s: replay: %q: %w", w.name, o.text, err))
		case ot.got != o.want:
			fail(fmt.Errorf("%s: replay: %q: wrong answer", w.name, o.text))
		default:
			pd.traces = append(pd.traces, ot)
			if ot.hit != (res.CacheState == "hit") {
				pd.mismatches++
			}
		}
		tr.end(root)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil && firstErr == nil {
		firstErr = err
	}
	if len(pd.traces) > 0 {
		shares = pd.report(m, tr.selfByName())
	}
	if w.dop2 {
		speedup, err := dop2Speedup(w, ops, pd.facadeRoot)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		m.set("exec.dop2_speedup", speedup, "root operator wall at DOP 1 / at DOP 2, same operations")
	} else {
		m.set("exec.dop2_speedup", 0, "measured on join_agg only")
	}
	return attempted, failed, shares, firstErr
}

// passData is what the traced pass collected.
type passData struct {
	traces      []*opTrace    // one per replayed SELECT
	facade      time.Duration // facade spans of the SELECTs
	facadeRoot  time.Duration // their root operators' wall, for the DOP comparison
	tracedTotal time.Duration // facade + write + rebuild spans
	untraced    time.Duration // the same operations without spans
	writeNs     time.Duration // writes, rebuilds and first reads after a write
	rebuildMs   []float64
	mismatches  int
}

// report turns the collected pass into the per-layer metrics and the
// layers' shares of the facade latency. self is the tracer's self time
// by span name.
func (pd *passData) report(m *metricSet, self map[string]time.Duration) (shares []layerShare) {
	traces, rebuildMs := pd.traces, pd.rebuildMs
	n := float64(len(traces))
	perOp := func(name string, unit time.Duration) float64 { return float64(self[name]) / float64(unit) / n }
	var (
		sqlAllocs, optAllocs, execAllocs uint64
		optimizes, fjPlans               int
		optMs, drainMs                   []float64
		plans, subsets, nested           int64
		fjSelf                           time.Duration
		selfByKind                       = map[string]time.Duration{}
		scanRows, rowsOut                int64
		cpuTuples, pageReads             int64
		drainNs                          int64
		units, nsOfUnits, estOverAct     []float64
	)
	for _, t := range traces {
		sqlAllocs += t.sqlAllocs
		execAllocs += t.execAllocs
		if t.optimized {
			optimizes++
			optAllocs += t.optAllocs
			optMs = append(optMs, float64(t.optNs)/1e6)
		}
		plans += t.metrics.plans
		subsets += t.metrics.subsets
		nested += t.metrics.nested
		if t.hasFJ {
			fjPlans++
		}
		fjSelf += t.fjSelf
		for k, d := range t.selfByKind {
			selfByKind[k] += d
		}
		scanRows += t.scanRows
		rowsOut += t.rowsOut
		cpuTuples += t.cpuTuples
		pageReads += t.pageReads
		drainNs += t.drainNs
		drainMs = append(drainMs, float64(t.drainNs)/1e6)
		units = append(units, t.costUnits)
		nsOfUnits = append(nsOfUnits, float64(t.drainNs))
		if t.costUnits > 0 {
			estOverAct = append(estOverAct, t.estUnits/t.costUnits)
		}
	}
	sort.Float64s(optMs)
	ops99 := tailQuantile(len(optMs), 0.99, 10)
	count := fmt.Sprintf("traced pass, %d SELECTs", len(traces))

	m.set("sql.parse_us", perOp("sql.parse", time.Microsecond), count)
	m.set("sql.normalize_us", perOp("sql.normalize", time.Microsecond), count)
	m.set("sql.bind_us", perOp("sql.bind", time.Microsecond), count)
	m.set("sql.allocs_per_stmt", float64(sqlAllocs)/n, count)
	m.set("plancache.get_ns", perOp("plancache.classify", 1)+perOp("plancache.get", 1)+perOp("plancache.put", 1), count)
	m.set("plancache.replay_mismatches", float64(pd.mismatches), "replay hit/miss differing from the facade's")
	m.set("opt.optimize_ms_p50", quantile(optMs, 0.5), fmt.Sprintf("n=%d optimizations", len(optMs)))
	m.set("opt.optimize_ms_p99", quantile(optMs, ops99), fmt.Sprintf("reported as p%.1f, n=%d", ops99*100, len(optMs)))
	m.set("opt.plans_considered_per_query", float64(plans)/n, count)
	m.set("opt.subsets_per_query", float64(subsets)/n, count)
	if optimizes > 0 {
		m.set("opt.allocs_per_optimize", float64(optAllocs)/float64(optimizes), fmt.Sprintf("n=%d optimizations", optimizes))
	} else {
		m.set("opt.allocs_per_optimize", 0, "no optimization in the traced pass")
	}
	m.set("core.nested_opts_per_query", float64(nested)/n, count)
	m.set("core.fj_plan_share", float64(fjPlans)/n, count)
	m.set("core.fj_self_ms", float64(fjSelf)/1e6/n, "FilterJoin self time plus the sub-plans it ran, per SELECT")
	m.set("plan.make_us", perOp("plan.make", time.Microsecond), count)
	m.set("exec.drain_ms_p50", median(drainMs), count)
	other := time.Duration(0)
	named := map[string]bool{}
	for _, d := range perLayer {
		if kind, ok := strings.CutPrefix(d.Name, "exec.self_ms."); ok && kind != "other" {
			named[kind] = true
			m.set(d.Name, float64(selfByKind[kind])/1e6/n, "per SELECT")
		}
	}
	for k, d := range selfByKind {
		if !named[k] {
			other += d
		}
	}
	m.set("exec.self_ms.other", float64(other)/1e6/n, "per SELECT, every other operator kind")
	m.set("exec.input_mrows_per_s", float64(scanRows)/1e6/(float64(drainNs)/1e9), fmt.Sprintf("%d scanned rows", scanRows))
	m.set("exec.rows_out_per_query", float64(rowsOut)/n, count)
	m.set("exec.allocs_per_krow", float64(execAllocs)/(float64(scanRows)/1000), "Mallocs around Drain per 1000 scanned rows")
	m.set("exec.cpu_tuples_per_query", float64(cpuTuples)/n, count)
	m.set("exec.page_reads_per_query", float64(pageReads)/n, count)
	slope, r2 := linearFit(units, nsOfUnits)
	m.set("cost.ns_per_unit", slope, "least-squares slope of drain ns on measured cost units")
	m.set("cost.r2", r2, count)
	m.set("cost.est_over_act", median(estOverAct), "median estimated / measured cost units")
	m.set("stats.rebuild_ms", median(rebuildMs), fmt.Sprintf("n=%d rebuilds after an INSERT", len(rebuildMs)))

	// Accounting: the layers' self times plus the residual are the
	// single-session facade latency, by construction.
	facade := pd.facade
	layerNs := map[string]time.Duration{
		"sql":       self["sql.parse"] + self["sql.normalize"] + self["sql.bind"],
		"plancache": self["plancache.classify"] + self["plancache.get"] + self["plancache.put"],
		"opt+core":  self["opt.optimize"],
		"plan":      self["plan.make"],
		"exec":      self["exec.drain"],
	}
	residual := facade
	for _, d := range layerNs {
		residual -= d
	}
	layerNs["engine"] = residual
	m.set("engine.residual_us", float64(residual)/1e3/n, "facade latency minus the replayed layers, per SELECT")
	for _, l := range []string{"sql", "plancache", "opt+core", "plan", "exec", "engine"} {
		shares = append(shares, layerShare{layer: l, ms: float64(layerNs[l]) / 1e6 / n,
			share: float64(layerNs[l]) / float64(facade)})
	}
	if len(rebuildMs) > 0 {
		shares = append(shares, layerShare{layer: "writes+rebuild+first-read", ms: float64(pd.writeNs) / 1e6 / float64(len(rebuildMs)),
			share: float64(pd.writeNs) / float64(pd.tracedTotal)})
	}
	m.set("trace.overhead_pct", 100*(float64(pd.tracedTotal)-float64(pd.untraced))/float64(pd.untraced),
		fmt.Sprintf("traced facade %.1f ms vs untraced %.1f ms", float64(pd.tracedTotal)/1e6, float64(pd.untraced)/1e6))
	return shares
}

// dop2Speedup runs the traced operations on a second engine opened with
// DegreeOfParallelism 2 and compares the root operators' wall time.
func dop2Speedup(w *workload, ops []*op, dop1 time.Duration) (float64, error) {
	inst, err := open(w, filterjoin.Config{DegreeOfParallelism: 2})
	if err != nil {
		return 0, err
	}
	var dop2 time.Duration
	for pass := 0; pass < 2; pass++ { // the first pass fills the plan cache
		dop2 = 0
		for _, o := range ops {
			if o.kind == opInsert {
				continue
			}
			res, err := inst.clients[0].do(o)
			if err != nil {
				return 0, fmt.Errorf("%s: DOP 2 engine: %q: %w", w.name, o.text, err)
			}
			if !check(res, o.want) {
				return 0, fmt.Errorf("%s: DOP 2 engine: %q: wrong answer", w.name, o.text)
			}
			dop2 += rootWall(res)
		}
	}
	if dop2 == 0 {
		return 0, nil
	}
	return float64(dop1) / float64(dop2), nil
}
