package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the keys of /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// plain strips the fields BENCHMARK.json does not carry.
func plain(defs []metricDef) []metricDef {
	out := make([]metricDef, len(defs))
	for i, d := range defs {
		d.exact = false
		out[i] = d
	}
	return out
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the command's
// own metric and workload tables in step, both ways.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, plain(endToEnd)) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, plain(endToEnd))
	}
	if !reflect.DeepEqual(b.PerLayer, plain(perLayer)) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, plain(perLayer))
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: json %v, code %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	haveSetup := false
	for _, d := range b.EndToEnd {
		haveSetup = haveSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !haveSetup {
		t.Error("end_to_end lacks setup_s")
	}
}

var metricRow = regexp.MustCompile(`(?m)^  ([A-Za-z0-9_.]+) +-?[0-9]+\.[0-9]+ `)

// TestQuickSmoke runs all five workloads at reduced sizes, both passes,
// and checks that every answer was right, that every metric of
// BENCHMARK.json is printed for every workload and nothing else is, and
// that the trace files were written.
func TestQuickSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	var buf bytes.Buffer
	logw = &buf
	defer func() { logw = os.Stderr }()
	if err := run(options{quick: true, seed: 1, repeat: 1, outDir: out}, &buf); err != nil {
		t.Fatalf("quick run: %v\n%s", err, buf.String())
	}
	text := buf.String()

	want := map[string]bool{"error_rate": true} // travels as failed/attempted, not as a metric
	for _, d := range append(b.EndToEnd, b.PerLayer...) {
		want[d.Name] = true
	}
	blocks := strings.Split(text, "\n== ")[1:]
	if len(blocks) != len(b.Workloads) {
		t.Fatalf("printed %d workload blocks, want %d", len(blocks), len(b.Workloads))
	}
	for i, block := range blocks {
		if !strings.HasPrefix(block, b.Workloads[i].Name+" ") {
			t.Errorf("block %d is not %s", i, b.Workloads[i].Name)
		}
		printed := map[string]bool{}
		for _, m := range metricRow.FindAllStringSubmatch(block, -1) {
			printed[m[1]] = true
			if !want[m[1]] {
				t.Errorf("%s prints %s, which BENCHMARK.json does not list", b.Workloads[i].Name, m[1])
			}
		}
		for name := range want {
			if !printed[name] {
				t.Errorf("%s does not print %s", b.Workloads[i].Name, name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+b.Workloads[i].Name+".json")); err != nil {
			t.Error(err)
		}
	}

	lines := strings.Split(strings.TrimSpace(text), "\n")
	var last driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("result: correct=%t failed=%d attempted=%d", last.Correct, last.Failed, last.Attempted)
	}
	if n := len(b.Workloads) * (len(b.EndToEnd) + len(b.PerLayer)); len(last.Metrics) != n {
		t.Errorf("result carries %d metrics, want %d", len(last.Metrics), n)
	}
}

// TestDriverLine checks the shape the driver reads: one workload, one
// mode, exactly that mode's metrics under their plain names.
func TestDriverLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var buf bytes.Buffer
		logw = &buf
		err := run(options{workload: "serve_hit", quick: true, seed: 3, repeat: 1, trace: trace, outDir: t.TempDir()}, &buf)
		logw = os.Stderr
		if err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, buf.String())
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 {
			t.Errorf("trace %s: result object has %d keys, want correct, attempted, failed, metrics", trace, len(raw))
		}
		var got map[string]metricValue
		if err := json.Unmarshal(raw["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(got), len(defs))
		}
		for _, d := range defs {
			if v, ok := got[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or in unit %q", trace, d.Name, v.Unit)
			}
		}
	}
}

// TestCheckPassRepeats: two check passes at one seed agree exactly in
// cost units and checksums, and another seed gives another stream.
func TestCheckPassRepeats(t *testing.T) {
	pass := func(name string, seed int64) (checkResult, *workload) {
		w, err := buildWorkload(name, seed, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		inst, _, err := setUp(w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := checkPass(w, inst)
		if err != nil || res.failed != 0 {
			t.Fatalf("%s seed %d: check pass: %d failed, %v", name, seed, res.failed, err)
		}
		return res, w
	}
	for _, name := range workloadNames {
		a, wa := pass(name, 1)
		b, _ := pass(name, 1)
		if a != b {
			t.Errorf("%s: check pass does not repeat: %+v vs %+v", name, a, b)
		}
		_, wc := pass(name, 2)
		same := true
		for s := range wa.streams {
			for i := range wa.streams[s] {
				o, p := wa.streams[s][i], wc.streams[s][i]
				same = same && o.text == p.text && reflect.DeepEqual(o.args, p.args)
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 generate the same stream", name)
		}
	}
}

func TestCompareRefusesOtherFingerprint(t *testing.T) {
	dir := t.TempDir()
	base := &resultFile{Fingerprint: fingerprint{NProc: 2, Seed: 1, Seconds: 10, Commit: "a"}}
	path := filepath.Join(dir, "result.json")
	if err := writeJSON(path, base); err != nil {
		t.Fatal(err)
	}
	cur := &resultFile{Fingerprint: base.Fingerprint}
	cur.Fingerprint.Commit = "b" // another commit is what a comparison is for
	if err := compareWith(&bytes.Buffer{}, path, cur); err != nil {
		t.Errorf("same machine, other commit: %v", err)
	}
	cur.Fingerprint.NProc = 8
	if err := compareWith(&bytes.Buffer{}, path, cur); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("other machine: want a refusal, got %v", err)
	}
}
