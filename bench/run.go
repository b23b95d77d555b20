package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	filterjoin "filterjoin"
)

// instance is one opened and loaded engine with a client per session.
type instance struct {
	db      *filterjoin.DB
	clients []*client
	// loadSeconds is the share of set-up spent in the INSERT statements.
	loadSeconds float64
}

// client is one closed-loop caller: a session and its prepared statement.
type client struct {
	sess *filterjoin.Session
	stmt *filterjoin.Stmt
}

// do sends one operation through the public facade.
func (c *client) do(o *op) (*filterjoin.Result, error) {
	switch o.kind {
	case opPrepared:
		return c.stmt.Exec(o.args...)
	case opInsert:
		return nil, c.sess.ExecScript(o.text)
	}
	return c.sess.Query(o.text)
}

// check compares a reply with the expected answer. Every column the
// workloads select is numeric, so the checksum is taken over floats.
func check(res *filterjoin.Result, want answer) bool {
	return answerOf(res) == want
}

func answerOf(res *filterjoin.Result) answer {
	var a answer
	var buf [8]float64
	for _, r := range res.Rows {
		vals := buf[:0]
		for _, v := range r {
			f, _ := v.AsFloat()
			vals = append(vals, f)
		}
		a.add(vals...)
	}
	return a
}

// open builds an engine on cfg, loads the workload's data through SQL
// and prepares one client per session.
func open(w *workload, cfg filterjoin.Config) (*instance, error) {
	db := filterjoin.Open(cfg)
	if err := db.ExecScript(schemaSQL); err != nil {
		return nil, fmt.Errorf("%s: DDL: %w", w.name, err)
	}
	t0 := time.Now()
	for _, stmt := range w.load {
		if err := db.ExecScript(stmt); err != nil {
			return nil, fmt.Errorf("%s: load: %w", w.name, err)
		}
	}
	inst := &instance{db: db, loadSeconds: time.Since(t0).Seconds()}
	for s := 0; s < w.sessions; s++ {
		sess := db.NewSession()
		stmt, err := sess.Prepare(preparedSQL)
		if err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
		inst.clients = append(inst.clients, &client{sess: sess, stmt: stmt})
	}
	return inst, nil
}

// setUp is what setup_s times: Open with defaults, DDL, load, and one
// pass over every query template, which builds the statistics and the
// view costers a first caller would otherwise pay for.
func setUp(w *workload) (*instance, float64, error) {
	t0 := time.Now()
	inst, err := open(w, filterjoin.Config{})
	if err != nil {
		return nil, 0, err
	}
	for class := range w.classes {
		o := w.classOp(class, 0)
		if o == nil || o.kind == opInsert {
			continue
		}
		if _, err := inst.clients[0].do(o); err != nil {
			return nil, 0, fmt.Errorf("%s: template pass: %w", w.name, err)
		}
	}
	return inst, time.Since(t0).Seconds(), nil
}

// classOp returns the k-th operation of a template class, cycling over
// the streams' operations of that class; nil when the class is empty.
func (w *workload) classOp(class, k int) *op {
	if w.byClass == nil {
		w.byClass = make([][]*op, len(w.classes))
		for s := range w.streams {
			for i := range w.streams[s] {
				o := &w.streams[s][i]
				w.byClass[o.class] = append(w.byClass[o.class], o)
			}
		}
	}
	of := w.byClass[class]
	if len(of) == 0 {
		return nil
	}
	return of[k%len(of)]
}

// checkResult is the outcome of the fixed-length check pass.
type checkResult struct {
	ops       int
	failed    int
	costUnits float64 // mean Model.Total(Result.Cost) per SELECT
	checksum  uint64  // over every reply, for the determinism test
}

// checkPass runs every stream once, in order, from a single session on
// a fresh engine, so the hit/miss pattern and with it the measured cost
// repeat exactly. Fixed families are checked against the oracle. Shapes
// without an oracle answer get theirs from a reference engine with the
// Filter Join and the plan cache both off — another plan space and no
// cache — which runs alongside on the second core; the streams keep
// those answers for the later phases.
func checkPass(w *workload, inst *instance) (checkResult, error) {
	var (
		ref     map[string]answer
		refErr  error
		refDone = make(chan struct{})
	)
	go func() {
		defer close(refDone)
		ref, refErr = referenceAnswers(w)
	}()

	var out checkResult
	var firstErr error
	model := inst.db.Model()
	total, selects := 0.0, 0
	replies := make([][]answer, len(w.streams))
	for s := range w.streams {
		replies[s] = make([]answer, len(w.streams[s]))
		for i := range w.streams[s] {
			o := &w.streams[s][i]
			res, err := inst.clients[0].do(o)
			out.ops++
			if err != nil {
				out.failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: check pass: %q: %w", w.name, o.text, err)
				}
				continue
			}
			if res == nil {
				continue
			}
			total += model.Total(res.Cost)
			selects++
			replies[s][i] = answerOf(res)
			out.checksum = out.checksum*31 + replies[s][i].sum + uint64(replies[s][i].rows)
		}
	}
	<-refDone
	if refErr != nil {
		return out, refErr
	}
	for s := range w.streams {
		for i := range w.streams[s] {
			o := &w.streams[s][i]
			if a, ok := ref[o.text]; ok {
				o.want, o.oracle = a, true
			}
			if o.kind != opInsert && replies[s][i] != o.want {
				out.failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: check pass: %q: got %d rows (checksum %x), want %d (%x)",
						w.name, o.text, replies[s][i].rows, replies[s][i].sum, o.want.rows, o.want.sum)
				}
			}
		}
	}
	if selects > 0 {
		out.costUnits = total / float64(selects)
	}
	return out, firstErr
}

// referenceAnswers answers every operation that has no oracle answer
// on the reference engine, by statement text.
func referenceAnswers(w *workload) (map[string]answer, error) {
	var ref *instance
	out := map[string]answer{}
	for s := range w.streams {
		for i := range w.streams[s] {
			o := &w.streams[s][i]
			if _, done := out[o.text]; done || o.oracle || o.kind != opQuery {
				continue
			}
			if ref == nil {
				var err error
				ref, err = open(w, filterjoin.Config{DisableFilterJoin: true, DisablePlanCache: true})
				if err != nil {
					return nil, err
				}
			}
			res, err := ref.clients[0].do(o)
			if err != nil {
				return nil, fmt.Errorf("%s: reference engine: %q: %w", w.name, o.text, err)
			}
			out[o.text] = answerOf(res)
		}
	}
	return out, nil
}

// sample is one timed operation of the closed loop.
type sample struct {
	ns         int64
	span       int64 // from the probe before it to the probe after it, ns
	probe      int32 // the slower of those two probes (quiet.go)
	class      uint8
	afterWrite bool // the session's first read after one of its writes
}

// loop is the closed loop's state between segments: each session's place
// in its cyclic stream, so that a run cut into segments still walks the
// streams through and plan_cold's shapes keep outrunning the cache.
type loop struct {
	w     *workload
	inst  *instance
	pos   []int  // per session: index of its next operation
	wrote []bool // per session: its last operation was a write
}

func newLoop(w *workload, inst *instance) *loop {
	return &loop{w: w, inst: inst, pos: make([]int, w.sessions), wrote: make([]bool, w.sessions)}
}

// segment is what one stretch of the closed loop measured.
type segment struct {
	samples  [][]sample  // per session, in completion order
	probes   [][]probeAt // per session, every probe taken
	failed   int
	firstErr error
	mallocs  uint64
	bytes    uint64
}

// run drives every session's stream for d from one goroutine per
// session: each client sends its next operation only when the previous
// reply has arrived and been checked, and probes the machine between
// operations, at most once every probeEvery.
func (l *loop) run(d time.Duration) *segment {
	w := l.w
	out := &segment{samples: make([][]sample, w.sessions), probes: make([][]probeAt, w.sessions)}
	fails := make([]int, w.sessions)
	errs := make([]error, w.sessions)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for s := 0; s < w.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, stream := l.inst.clients[s], w.streams[s]
			samples := make([]sample, 0, 1<<12)
			var pr prober
			// level closes the stretch since the last probe: its
			// operations carry the slower of the two probes around them.
			open, last := 0, pr.take()
			log := []probeAt{{at: pr.at, ns: last, first: true}}
			level := func() {
				from := pr.at
				next := pr.take()
				log = append(log, probeAt{at: pr.at, ns: next})
				for k := open; k < len(samples); k++ {
					samples[k].probe, samples[k].span = max(last, next), int64(pr.at.Sub(from))
				}
				open, last = len(samples), next
			}
			i, wrote := l.pos[s], l.wrote[s]
			for ; ; i++ {
				o := &stream[i%len(stream)]
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				res, err := c.do(o)
				t1 := time.Now()
				isWrite := o.kind == opInsert
				samples = append(samples, sample{ns: int64(t1.Sub(t0)), class: uint8(o.class), afterWrite: wrote && !isWrite})
				wrote = isWrite
				if err != nil || (res != nil && !check(res, o.want)) {
					fails[s]++
					if errs[s] == nil {
						if err == nil {
							err = fmt.Errorf("wrong answer")
						}
						errs[s] = fmt.Errorf("%s: session %d op %d: %q: %w", w.name, s, i, o.text, err)
					}
				}
				if t1.Sub(pr.at) >= probeEvery {
					level()
				}
			}
			level()
			l.pos[s], l.wrote[s] = i, wrote
			out.samples[s], out.probes[s] = samples, log
		}(s)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	out.bytes = after.TotalAlloc - before.TotalAlloc
	for s := range fails {
		out.failed += fails[s]
		if out.firstErr == nil {
			out.firstErr = errs[s]
		}
	}
	return out
}

// coldSample is one operation run right after InvalidateCaches.
type coldSample struct {
	ms    float64
	probe int32
	class int
}

// timedRun is the whole timed run: its segments' samples joined, and the
// cold rounds taken between the segments.
type timedRun struct {
	samples [][]sample  // per session
	probes  [][]probeAt // per session
	cold    []coldSample
	rounds  int // cold rounds so far
	mallocs uint64
	bytes   uint64
}

func (r *timedRun) ops() int {
	n := 0
	for _, s := range r.samples {
		n += len(s)
	}
	return n
}

func (r *timedRun) add(seg *segment) {
	if r.samples == nil {
		r.samples = make([][]sample, len(seg.samples))
		r.probes = make([][]probeAt, len(seg.samples))
	}
	for s, part := range seg.samples {
		r.samples[s] = append(r.samples[s], part...)
		r.probes[s] = append(r.probes[s], seg.probes[s]...)
	}
	r.mallocs += seg.mallocs
	r.bytes += seg.bytes
}

// weighted is one quiet operation and the share of the stream it stands
// for.
type weighted struct{ ms, w float64 }

// weightedQuantile is the q-quantile of samples sorted by ms.
func weightedQuantile(sorted []weighted, q float64) float64 {
	acc := 0.0
	for _, x := range sorted {
		if acc += x.w; acc >= q {
			return x.ms
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1].ms
}

// latencyMetrics fills qps and the latency metrics from the operations
// that ran while the machine read quiet (quiet.go).
//
// An operation counts when the probes on both sides of it read quiet, so
// a long one, which has more time to run into a burst, counts less often
// than a short one: on join_agg a noisy run kept a fifth of the 40 ms
// GROUP BYs and half of the 12 ms joins and read 10 % faster for it, and
// on serve_hit the operations a collection cycle had stretched went
// missing from p99. Two weights put that right. Each quiet operation
// counts for one over the chance that a probe as long after a quiet
// probe as its second probe came after its first reads quiet too, which
// the session's probe log alone decides (quietLags.fit). And each kind of
// operation (session, template class, first read after a write) is
// scaled back to its share of the whole stream, which the seed fixes. A
// kind none of whose operations read quiet stands in with all of them.
// The rate is that of the same weighted mix: for each session one over
// the mean time of an operation, summed.
func latencyMetrics(m *metricSet, w *workload, r *timedRun, seconds float64) {
	var levels []int32
	for _, s := range r.samples {
		for _, x := range s {
			levels = append(levels, x.probe)
		}
	}
	limit, base := quietLimit(levels)
	var quiet []weighted
	rate := 0.0
	for si, s := range r.samples {
		lags := newQuietLags(r.probes[si], limit)
		kinds := map[[2]uint8][]sample{}
		for _, x := range s {
			k := [2]uint8{x.class, 0}
			if x.afterWrite {
				k[1] = 1
			}
			kinds[k] = append(kinds[k], x)
		}
		perOp := 0.0 // ns, mean over the session's stream
		for _, all := range kinds {
			var kept []weighted
			total := 0.0
			for _, x := range all {
				if x.probe <= limit {
					kept = append(kept, weighted{ms: float64(x.ns) / 1e6, w: 1 / lags.fit(time.Duration(x.span))})
					total += kept[len(kept)-1].w
				}
			}
			if len(kept) == 0 {
				for _, x := range all {
					kept = append(kept, weighted{ms: float64(x.ns) / 1e6, w: 1})
				}
				total = float64(len(kept))
			}
			mean := 0.0
			for i := range kept {
				kept[i].w /= total
				mean += kept[i].w * kept[i].ms * 1e6
				kept[i].w *= float64(len(all)) / float64(len(levels))
			}
			perOp += float64(len(all)) / float64(len(s)) * mean
			quiet = append(quiet, kept...)
		}
		if perOp > 0 {
			rate += 1e9 / perOp
		}
	}
	sort.Slice(quiet, func(i, j int) bool { return quiet[i].ms < quiet[j].ms })
	count := fmt.Sprintf("n=%d quiet operations of %d (probe <= %.1f us, quiet reading %.1f us)",
		len(quiet), len(levels), float64(limit)/1e3, float64(base)/1e3)
	m.set("qps", rate, fmt.Sprintf("%s; all operations over wall time %.1f", count, float64(len(levels))/seconds))
	m.set("lat_p50_ms", weightedQuantile(quiet, 0.5), count)
	q := tailQuantile(len(quiet), 0.99, 10)
	m.set("lat_p99_ms", weightedQuantile(quiet, q), fmt.Sprintf("reported as p%.1f, %s", q*100, count))

	// Cold: the median of each template class's quiet samples, then the
	// mean over the classes, so the number sits inside the mix and not
	// on a class boundary.
	if len(r.cold) == 0 {
		return
	}
	byClass := make([][]float64, len(w.classes))
	kept := 0
	for _, x := range r.cold {
		if x.probe <= limit {
			byClass[x.class] = append(byClass[x.class], x.ms)
			kept++
		}
	}
	sum, classes := 0.0, 0
	for _, of := range byClass {
		if len(of) > 0 {
			sum += median(of)
			classes++
		}
	}
	if classes > 0 {
		m.set("cold_lat_p50_ms", sum/float64(classes), fmt.Sprintf("mean over %d classes of the class median; n=%d quiet of %d operations in %d rounds",
			classes, kept, len(r.cold), r.rounds))
	}
}

// coldRounds measures what a caller pays right after a catalog change:
// each round invalidates the caches before one operation per template
// class, a probe on either side of it. Rounds take up the streams where
// the last block's rounds left them and go on until window has passed,
// at least one. Afterwards one untimed operation per class puts back the
// plans the timed run had cached.
func (r *timedRun) coldRounds(w *workload, inst *instance, window time.Duration) (ops, failed int, firstErr error) {
	c := inst.clients[0]
	var pr prober
	start, from := time.Now(), r.rounds
	for ; r.rounds == from || time.Since(start) < window; r.rounds++ {
		for class := range w.classes {
			o := w.classOp(class, r.rounds)
			if o == nil || o.kind == opInsert {
				continue
			}
			inst.db.InvalidateCaches()
			before := pr.take()
			t0 := time.Now()
			res, err := c.do(o)
			ms := float64(time.Since(t0)) / 1e6
			r.cold = append(r.cold, coldSample{ms: ms, probe: max(before, pr.take()), class: class})
			ops++
			if err != nil || !check(res, o.want) {
				failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: cold round %d: %q: wrong answer or error: %v", w.name, r.rounds, o.text, err)
				}
			}
		}
	}
	for class := range w.classes {
		if o := w.classOp(class, from); o != nil && o.kind != opInsert {
			_, _ = c.do(o) // the round above ran and checked this very operation
		}
	}
	return ops, failed, firstErr
}

// Set-up repeats at least minSetups times and then until it has used
// setupBudgetSeconds: many repetitions on the small catalog, where one
// takes milliseconds, three on the large one.
const (
	minSetups          = 3
	setupBudgetSeconds = 1.0
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // the timed run, all blocks together
	warmup  float64
	blocks  int     // blocks the timed run is cut into
	coldFor float64 // seconds of cold rounds, all blocks together; 0 skips them
	setups  int     // most set-up repetitions (setup_s is their median)
	sz      sizes
	outDir  string
	traced  bool // run the traced pass
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	name      string
	attempted int
	failed    int
	e2e       *metricSet
	layers    *metricSet
	shares    []layerShare
	classes   []string // per template class: share and percentiles in the timed run
}

// runWorkload runs the phases the config asks for. Errors that make
// numbers meaningless (set-up failed) abort; wrong answers are counted
// and reported.
func runWorkload(name string, cfg runConfig) (*workloadResult, error) {
	w, err := buildWorkload(name, cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	out := &workloadResult{name: name, e2e: newMetricSet(), layers: newMetricSet()}
	// Hand the heap an earlier workload grew back to the system, so that
	// a workload run after the large catalogs allocates as it does in a
	// process of its own: with their 60 MiB of spans still mapped,
	// serve_hit's p99 read 28 % apart between the two passes of -repeat 2.
	debug.FreeOSMemory()
	note := func(err error) {
		if err != nil {
			fmt.Fprintln(logw, "bench: "+err.Error())
		}
	}

	// Set-up, repeated until its median is worth reporting: the first
	// engine serves the check pass (it must be fresh), the last one
	// everything after it.
	var (
		inst     *instance
		setupSec []float64
		spent    float64
	)
	for k := 0; k < cfg.setups && (k < minSetups || spent < setupBudgetSeconds); k++ {
		inst = nil
		runtime.GC()
		var sec float64
		inst, sec, err = setUp(w)
		if err != nil {
			return nil, err
		}
		setupSec = append(setupSec, sec)
		spent += sec
		if k == 0 {
			chk, err := checkPass(w, inst)
			note(err)
			out.attempted += chk.ops
			out.failed += chk.failed
			out.e2e.set("cost_units_per_query", chk.costUnits, fmt.Sprintf("check pass, %d ops", chk.ops))
		}
	}
	out.e2e.set("setup_s", median(setupSec), fmt.Sprintf("median of %d set-ups", len(setupSec)))
	out.layers.set("storage.load_rows_per_s", float64(w.nEmp+w.nDept)/inst.loadSeconds, "")

	// Warm-up, then the blocks: a timed stretch of the closed loop, then
	// this block's cold rounds. The cold rounds sit between the stretches
	// so that they, too, sample the whole run and not one moment of it.
	l := newLoop(w, inst)
	runtime.GC()
	note(l.run(time.Duration(cfg.warmup * float64(time.Second))).firstErr)
	per := time.Duration(cfg.seconds / float64(cfg.blocks) * float64(time.Second))
	coldPer := time.Duration(cfg.coldFor / float64(cfg.blocks) * float64(time.Second))
	run := &timedRun{}
	var traffic engineSnapshot
	for b := 0; b < cfg.blocks; b++ {
		runtime.GC()
		before := snapshotEngine(inst)
		seg := l.run(per)
		traffic = traffic.plus(snapshotEngine(inst).since(before))
		note(seg.firstErr)
		out.failed += seg.failed
		run.add(seg)
		if cfg.coldFor > 0 {
			ops, failed, err := run.coldRounds(w, inst, coldPer)
			note(err)
			out.attempted += ops
			out.failed += failed
		}
	}
	n := run.ops()
	out.attempted += n
	latencyMetrics(out.e2e, w, run, cfg.seconds)
	out.e2e.set("allocs_per_query", float64(run.mallocs)/float64(n), "timed run")
	out.e2e.set("alloc_kb_per_query", float64(run.bytes)/1024/float64(n), "timed run")
	timedRunLayerMetrics(out.layers, w, run, traffic)
	out.classes = classBreakdown(w, run)
	// The heap the engine keeps, once the run's own samples are let go:
	// data, caches, and the harness's streams and load text.
	run = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.e2e.set("heap_live_mb", float64(ms.HeapAlloc-uint64(len(ballast)))/(1<<20),
		fmt.Sprintf("after the timed run, without the %d MiB ballast", len(ballast)>>20))

	if cfg.traced {
		runtime.GC()
		ops, failed, shares, err := tracedPass(w, inst, cfg, out.layers)
		note(err)
		out.attempted += ops
		out.failed += failed
		out.shares = shares
	}
	return out, nil
}

// timedRunLayerMetrics derives the per-layer numbers that only show
// under the workload's real concurrency: plan-cache traffic, epoch
// bumps, write and read-after-write latency, and the far tail.
func timedRunLayerMetrics(m *metricSet, w *workload, run *timedRun, d engineSnapshot) {
	m.set("plancache.hit_ratio", d.cache.HitRate(), fmt.Sprintf("timed run, %d lookups", d.cache.Hits+d.cache.Misses))
	m.set("plancache.misses", float64(d.cache.Misses), "timed run")
	m.set("plancache.evictions", float64(d.cache.Evictions), "timed run")
	m.set("plancache.clears", float64(d.cache.Clears), "timed run")
	m.set("engine.epoch_bumps", float64(d.epoch), "timed run")

	var all, writes, afterWrite []float64
	for _, s := range run.samples {
		for _, x := range s {
			ms := float64(x.ns) / 1e6
			all = append(all, ms)
			switch {
			case w.classes[x.class] == "insert":
				writes = append(writes, ms)
			case x.afterWrite:
				afterWrite = append(afterWrite, ms)
			}
		}
	}
	sort.Float64s(all)
	q := tailQuantile(len(all), 0.999, 10)
	m.set("engine.lat_p999_ms", quantile(all, q), fmt.Sprintf("timed run, reported as p%.2f, n=%d", q*100, len(all)))
	m.set("engine.write_ms_p50", median(writes), fmt.Sprintf("timed run, n=%d", len(writes)))
	m.set("engine.read_after_write_ms_p50", median(afterWrite), fmt.Sprintf("timed run, n=%d", len(afterWrite)))
}

// classBreakdown shows where the timed run's percentiles sit: for each
// template class its share of the operations and its own p50 and p99.
func classBreakdown(w *workload, run *timedRun) []string {
	byClass := make([][]float64, len(w.classes))
	for _, s := range run.samples {
		for _, x := range s {
			byClass[x.class] = append(byClass[x.class], float64(x.ns)/1e6)
		}
	}
	var out []string
	for c, ms := range byClass {
		if len(ms) == 0 {
			continue
		}
		sort.Float64s(ms)
		out = append(out, fmt.Sprintf("%s %.1f%% p50 %.3f p99 %.3f ms", w.classes[c],
			100*float64(len(ms))/float64(run.ops()), quantile(ms, 0.5), quantile(ms, 0.99)))
	}
	return out
}
