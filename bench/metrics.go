package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json repeats these
// tables; bench_test.go holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a count that must repeat bit for bit at a fixed seed.
	exact bool
}

// endToEnd is what a user of the engine sees, measured with tracing off.
// Bound is the share of the parent's median by which a later change may
// worsen the metric. The timings carry the largest bound the contract
// allows: this box shares its cores with other tenants, and although the
// timings are taken over the operations that ran while the machine read
// quiet (quiet.go), what is left of the tenants still moves them by 3 to
// 8 % between runs (interquartile range over the median, ten seeds), and
// a bound has to be three times that. The counts are tight at a fixed
// seed (cost units repeat exactly) and move only with the seed's data.
// error_rate is printed with these but travels to the driver as
// failed/attempted: a metric that is 0 when all is well cannot carry a
// relative bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cold_lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cost_units_per_query", Unit: "units", Better: "lower", Bound: 0.15, exact: true},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.04},
	{Name: "alloc_kb_per_query", Unit: "KiB", Better: "lower", Bound: 0.15},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// perLayer comes from the traced pass and the per-class samples of the
// timed run. These have no bound: they explain a move, they do not gate.
var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.normalize_us", Unit: "us", Better: "lower"},
	{Name: "sql.bind_us", Unit: "us", Better: "lower"},
	{Name: "sql.allocs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.misses", Unit: "count", Better: "lower"},
	{Name: "plancache.evictions", Unit: "count", Better: "lower"},
	{Name: "plancache.clears", Unit: "count", Better: "lower"},
	{Name: "plancache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "plancache.replay_mismatches", Unit: "count", Better: "lower"},
	{Name: "opt.optimize_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "opt.optimize_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "opt.plans_considered_per_query", Unit: "count", Better: "lower"},
	{Name: "opt.subsets_per_query", Unit: "count", Better: "lower"},
	{Name: "opt.allocs_per_optimize", Unit: "count", Better: "lower"},
	{Name: "core.nested_opts_per_query", Unit: "count", Better: "lower"},
	{Name: "core.fj_plan_share", Unit: "ratio", Better: "higher"},
	{Name: "core.fj_self_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.make_us", Unit: "us", Better: "lower"},
	{Name: "exec.drain_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.TableScan", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.Select", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.HashJoin", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.IndexNLJoin", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.FilterJoin", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.GroupBy", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.Sort", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.Project", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.other", Unit: "ms", Better: "lower"},
	{Name: "exec.input_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "exec.rows_out_per_query", Unit: "rows", Better: "lower"},
	{Name: "exec.allocs_per_krow", Unit: "count", Better: "lower"},
	{Name: "exec.cpu_tuples_per_query", Unit: "count", Better: "lower"},
	{Name: "exec.page_reads_per_query", Unit: "count", Better: "lower"},
	{Name: "exec.dop2_speedup", Unit: "x", Better: "higher"},
	{Name: "cost.ns_per_unit", Unit: "ns/unit", Better: "lower"},
	{Name: "cost.r2", Unit: "ratio", Better: "higher"},
	{Name: "cost.est_over_act", Unit: "ratio", Better: "lower"},
	{Name: "stats.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.load_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.residual_us", Unit: "us", Better: "lower"},
	{Name: "engine.write_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.read_after_write_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.epoch_bumps", Unit: "count", Better: "lower"},
	{Name: "engine.lat_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one measured number as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds one workload's values by metric name, with the remark
// (sample count, percentile actually reported) printed beside each.
type metricSet struct {
	vals  map[string]float64
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]float64{}, notes: map[string]string{}}
}

func (m *metricSet) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = v
	if note != "" {
		m.notes[name] = note
	}
}

// export renders the defs' values in the driver's shape.
func (m *metricSet) export(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile (nearest rank) of sorted xs; 0 when
// xs is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile picks the tail percentile a sample of n supports: want
// when at least beyond samples lie past it, else the highest percentile
// that still has that many past it.
func tailQuantile(n int, want float64, beyond int) float64 {
	if n < 2*beyond {
		return 0.5
	}
	if supported := 1 - float64(beyond)/float64(n); supported < want {
		return supported
	}
	return want
}

// linearFit is the least-squares line y = a + b*x and its R^2; all zero
// when x does not vary.
func linearFit(x, y []float64) (slope, r2 float64) {
	n := float64(len(x))
	if n < 2 {
		return 0, 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, 0
	}
	return sxy / sxx, sxy * sxy / (sxx * syy)
}
