// Command bench is the repository's one benchmark: five seeded workloads
// driven in a closed loop through the public facade with tracing off
// (the end-to-end metrics), a separate traced single-session pass that
// times the calls into each layer (the per-layer metrics), and an
// independent oracle over every answer. BENCHMARK.json describes it;
// README.md in this directory explains the metrics and how they interact.
//
//	go run ./bench -seed 1                                  # everything
//	go run ./bench -workload serve_hit -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh --workload serve_hit --seed 1 --seconds 12 --trace 0   # as the driver does
//	go run ./bench -quick                                   # the smoke run of go test
//	go run ./bench -repeat 2                                # run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// logw receives progress and the first error of each phase.
var logw io.Writer = os.Stderr

// Phase lengths that are not flags: the warm-up before the timed run,
// the blocks the timed run is cut into, the cold rounds (so long, all
// blocks together), and how often set-up is repeated for its median.
const (
	warmupSeconds = 2.0
	timedBlocks   = 12
	coldSeconds   = 4.0
	maxSetups     = 9
)

// ballast stands in for the heap of the application that embeds the
// engine. The small catalogs keep 2 MiB alive while a query allocates 1
// to 3 MiB, so on its own this process would collect garbage every other
// query, a thousand times a second, and the timings would follow the
// collector's pacing: qps moved by 30 % from run to run, the allocation
// counts by nothing, and GOGC=800 alone made serve_hit 2.5 times faster.
// With the ballast a cycle comes every 35 MiB on the small catalogs, which
// puts 2 to 5 % of the operations in a cycle and so keeps p99 inside that
// group and p50 well outside it. 32 MiB was the steadiest of 8 to 256: a
// larger heap cycles through more memory than the caches hold and ran
// both slower and less steadily. It holds no pointers, so the collector
// never scans it, and heap_live_mb leaves it out.
const ballastMiB = 32

var ballast []byte

// fingerprint identifies the machine and settings a result was taken
// under. Results compare only when everything but the commit agrees.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	BatchSize  int     `json:"exec_batch_size"`
	Kernels    bool    `json:"exec_kernels"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	BallastMiB int     `json:"ballast_mib"`
}

func takeFingerprint(seed int64, seconds float64, quick bool) fingerprint {
	f := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Seconds: seconds, Quick: quick, BallastMiB: ballastMiB}
	f.BatchSize, f.Kernels = engineDefaults()
	if out, err := osexec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
	}
	return f
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s batch=%d kernels=%t commit=%s seed=%d seconds=%g quick=%t ballast=%dMiB",
		f.NProc, f.GOMAXPROCS, f.GoVersion, f.BatchSize, f.Kernels, f.Commit, f.Seed, f.Seconds, f.Quick, f.BallastMiB)
}

// sameMachine reports whether two results may be compared.
func (f fingerprint) sameMachine(o fingerprint) bool {
	o.Commit = f.Commit
	return f == o
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0" end-to-end only, "1" per-layer only, "" both
	quick    bool
	repeat   int
	compare  string
	outDir   string
}

// resultFile is what a run leaves in <out>/result.json for -compare.
type resultFile struct {
	Fingerprint fingerprint                       `json:"fingerprint"`
	EndToEnd    map[string]map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]map[string]metricValue `json:"per_layer"`
}

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: data, literals and operation streams derive from it")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the timed closed-loop run, all its blocks together")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: reduced sizes, all workloads in a few seconds")
	flag.IntVar(&o.repeat, "repeat", 1, "run the set N times and check each end-to-end metric's spread against its bound")
	flag.StringVar(&o.compare, "compare", "", "result.json of an earlier run to compare against (same fingerprint required)")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files and result.json")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results are printed when an answer
// was wrong or an operation failed.
var errIncorrect = errors.New("wrong answers or failed operations; see error_rate")

// run executes the command and writes the report to w.
func run(o options, w io.Writer) error {
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return fmt.Errorf("-trace must be 0 or 1, got %q", o.trace)
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	cfg := runConfig{seed: o.seed, seconds: o.seconds, warmup: warmupSeconds, blocks: timedBlocks, coldFor: coldSeconds,
		setups: maxSetups, sz: fullSizes, outDir: o.outDir, traced: o.trace != "0"}
	if o.quick {
		cfg.seconds, cfg.warmup, cfg.blocks, cfg.coldFor, cfg.setups, cfg.sz = 0.25, 0.05, 3, 0.001, 1, quickSizes
	}
	if o.trace == "1" {
		cfg.coldFor, cfg.setups = 0, 1
	}
	if ballast == nil {
		ballast = make([]byte, ballastMiB<<20)
	}
	fp := takeFingerprint(o.seed, cfg.seconds, o.quick)
	fmt.Fprintf(w, "fingerprint: %s\n", fp)

	var (
		runs   []*resultFile
		line   driverLine
		failed bool
	)
	for rep := 0; rep < o.repeat; rep++ {
		rf := &resultFile{Fingerprint: fp, EndToEnd: map[string]map[string]metricValue{}, PerLayer: map[string]map[string]metricValue{}}
		line = driverLine{Metrics: map[string]metricValue{}}
		for _, name := range names {
			res, err := runWorkload(name, cfg)
			if err != nil {
				return err
			}
			report(w, res, o.trace, cfg)
			line.Attempted += res.attempted
			line.Failed += res.failed
			prefix := ""
			if len(names) > 1 {
				prefix = name + "/"
			}
			if o.trace != "1" {
				rf.EndToEnd[name] = res.e2e.export(endToEnd)
				for k, v := range rf.EndToEnd[name] {
					line.Metrics[prefix+k] = v
				}
			}
			if o.trace != "0" {
				rf.PerLayer[name] = res.layers.export(perLayer)
				for k, v := range rf.PerLayer[name] {
					line.Metrics[prefix+k] = v
				}
			}
		}
		failed = failed || line.Failed > 0
		runs = append(runs, rf)
	}
	last := runs[len(runs)-1]
	if err := writeJSON(filepath.Join(o.outDir, "result.json"), last); err != nil {
		return err
	}

	var verdict error
	if o.repeat > 1 {
		if err := reportSpread(w, runs); err != nil {
			verdict = err
		}
	}
	if o.compare != "" {
		if err := compareWith(w, o.compare, last); err != nil {
			verdict = err
		}
	}
	if failed {
		verdict = errIncorrect
	}
	line.Correct = !failed
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return verdict
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints one workload's metrics by name and unit.
func report(w io.Writer, r *workloadResult, trace string, cfg runConfig) {
	fmt.Fprintf(w, "\n== %s (seed %d, timed run %gs)\n", r.name, cfg.seed, cfg.seconds)
	row := func(set *metricSet, d metricDef) {
		fmt.Fprintf(w, "  %-34s %14.4f %-8s %s\n", d.Name, set.vals[d.Name], d.Unit, set.notes[d.Name])
	}
	if trace != "1" {
		fmt.Fprintln(w, "end-to-end (tracing off)")
		for _, d := range endToEnd {
			row(r.e2e, d)
		}
	}
	fmt.Fprintf(w, "  timed-run classes: %s\n", strings.Join(r.classes, "; "))
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6f %-8s %d failed of %d attempted\n", "error_rate", rate, "ratio", r.failed, r.attempted)
	if trace != "0" {
		fmt.Fprintln(w, "per-layer (traced single-session pass; plancache.* and engine.* from the timed run)")
		for _, d := range perLayer {
			row(r.layers, d)
		}
		fmt.Fprint(w, "  share of single-session facade latency:")
		for _, s := range r.shares {
			fmt.Fprintf(w, "  %s %.1f%% (%.3f ms)", s.layer, 100*s.share, s.ms)
		}
		fmt.Fprintln(w)
	}
}

// reportSpread prints, for every end-to-end metric of every workload,
// (max - min) / median over the repeated runs beside the bound, and
// fails when a spread exceeds its bound or an exact count moved.
func reportSpread(w io.Writer, runs []*resultFile) error {
	fmt.Fprintf(w, "\nspread over %d runs: (max - min) / median, against the bound\n", len(runs))
	var over []string
	for _, name := range sortedKeys(runs[0].EndToEnd) {
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range runs {
				vals = append(vals, r.EndToEnd[name][d.Name].Value)
			}
			sort.Float64s(vals)
			spread := 0.0
			if med := quantile(vals, 0.5); med != 0 {
				spread = (vals[len(vals)-1] - vals[0]) / med
			}
			limit, verdict := d.Bound, "ok"
			if d.exact {
				limit = 0
			}
			if spread > limit {
				verdict = "OVER"
				over = append(over, name+"/"+d.Name)
			}
			fmt.Fprintf(w, "  %-12s %-22s spread %7.4f  bound %.2f  %s\n", name, d.Name, spread, limit, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over the bound: %s", strings.Join(over, ", "))
	}
	return nil
}

// compareWith prints this run's end-to-end metrics beside an earlier
// run's and fails when one is worse by more than its bound. Runs taken
// under different fingerprints are refused.
func compareWith(w io.Writer, path string, cur *resultFile) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base resultFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if !cur.Fingerprint.sameMachine(base.Fingerprint) {
		return fmt.Errorf("refusing to compare: fingerprints differ\n  this run: %s\n  %s: %s", cur.Fingerprint, path, base.Fingerprint)
	}
	fmt.Fprintf(w, "\ncompared with %s (commit %s)\n", path, base.Fingerprint.Commit)
	var worse []string
	for _, name := range sortedKeys(cur.EndToEnd) {
		for _, d := range endToEnd {
			b, ok := base.EndToEnd[name][d.Name]
			if !ok || b.Value == 0 {
				continue
			}
			c := cur.EndToEnd[name][d.Name].Value
			change := (c - b.Value) / b.Value
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if change > d.Bound {
				verdict = "WORSE"
				worse = append(worse, name+"/"+d.Name)
			}
			fmt.Fprintf(w, "  %-12s %-22s %14.4f -> %14.4f  worse by %+7.4f  bound %.2f  %s\n",
				name, d.Name, b.Value, c, change, d.Bound, verdict)
		}
	}
	if len(worse) > 0 {
		return fmt.Errorf("worse than %s beyond the bound: %s", path, strings.Join(worse, ", "))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
