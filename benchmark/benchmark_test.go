package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes os.Executable() once per workload, and a child so
// marked runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from statistics.quantiles(v, n=4) and
	// statistics.median(v), the routines the acceptance driver uses.
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10.5, 3.2, 7.7, 1.1, 9.9, 4.4, 6.6, 2.2, 8.8, 5.5}, 2.95, 6.05, 9.075},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 9}, 1, 5, 9},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.in)
		for _, p := range [][2]float64{{q1, tc.q1}, {med, tc.med}, {q3, tc.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, med, q3, tc.q1, tc.med, tc.q3)
				break
			}
		}
	}
	if q1, med, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(med) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v %v %v, want NaNs", q1, med, q3)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{workload: "w"}
	r.spans = []span{
		{name: "root", start: 0, end: 100 * time.Millisecond, parent: -1},
		{name: "probe", start: 10 * time.Millisecond, end: 40 * time.Millisecond, parent: 0},
		{name: "probe", start: 50 * time.Millisecond, end: 70 * time.Millisecond, parent: 0},
		{name: "inner", start: 55 * time.Millisecond, end: 60 * time.Millisecond, parent: 2},
	}
	got := r.selfTimesMS()
	want := map[string]float64{"root": 50, "probe": 45, "inner": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTraceFlagForms(t *testing.T) {
	for args, want := range map[string]bool{
		"--trace":                        true,
		"--trace 1 --seed 3":             true,
		"--trace 0 --seed 3":             false,
		"--trace=0":                      false,
		"--workload sim-plan --trace":    true,
		"--seed 3 --workload sim-plan":   false,
		"--trace 1 --workload sim-plan":  true,
		"--workload sim-plan --trace 0 ": false,
	} {
		o, err := parseArgs(strings.Fields(args), os.Stderr)
		if err != nil || o.trace != want {
			t.Errorf("parseArgs(%q): trace=%v err=%v, want %v", args, o.trace, err, want)
		}
	}
	if _, err := parseArgs([]string{"--workload", "nope"}, new(bytes.Buffer)); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// expectedManifest derives BENCHMARK.json from this package's tables.
func expectedManifest() manifest {
	m := manifest{Command: []string{"bash", "benchmark/bench.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, e := range endToEndMetrics {
		if e.gate > 0 {
			gate := e.gate
			m.EndToEnd = append(m.EndToEnd, manifestMetric{e.name, e.unit, better(e.higher), &gate})
		}
	}
	for _, l := range layerMetrics {
		m.PerLayer = append(m.PerLayer, manifestMetric{l.name, l.unit, better(l.higher), nil})
	}
	return m
}

func TestBenchmarkJSONLint(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := expectedManifest(); !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json disagrees with the tables in spec.go / workloads.go / layers.go; they say:\n%s", exp)
	}

	// The limits the driver refuses a file over, and the cross-references
	// it cannot see.
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", got.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1..64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	workloadNamed := map[string]bool{}
	for _, w := range got.Workloads {
		name(w.Name)
		workloadNamed[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	gated := map[string]bool{}
	hasSetup := false
	for _, e := range got.EndToEnd {
		name(e.Name)
		gated[e.Name] = true
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("metric %s: unit %q", e.Name, e.Unit)
		}
		if e.Bound == nil || *e.Bound < 0 || *e.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want 0..0.25", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, l := range got.PerLayer {
		name(l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("metric %s: unit %q", l.Name, l.Unit)
		}
	}
	for _, l := range layerMetrics {
		for _, mv := range l.moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok || !gated[metric] || !workloadNamed[workload] {
				t.Errorf("layer metric %s predicts %q: not an end-to-end metric @ workload of BENCHMARK.json", l.name, mv)
			}
		}
	}
	for _, e := range endToEndMetrics {
		for _, w := range e.on {
			if !workloadNamed[w] {
				t.Errorf("end-to-end metric %s is reported by unknown workload %q", e.name, w)
			}
		}
	}
}

// TestSmoke drives the real harness — one process per workload, the
// traced pass with its ladder, and --compare — at smoke size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one process per workload")
	}
	out := t.TempDir()
	bench := func(args ...string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"--smoke", "--seconds", "0.05", "--out", out}, args...), &stdout, &stderr)
		if stderr.Len() > 0 {
			t.Logf("benchmark %v stderr:\n%s", args, stderr.String())
		}
		return code, stdout.String()
	}

	if code, stdout := bench(); code != 0 {
		t.Fatalf("untraced smoke pass exited %d:\n%s", code, stdout)
	}
	results := filepath.Join(out, "results.json")
	doc, err := readDoc(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("results.json holds %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	if fp := doc.Fingerprint; fp.P != workers || fp.Go == "" || fp.Commit == "" || fp.NProc == 0 || !fp.Smoke {
		t.Errorf("incomplete fingerprint %+v", fp)
	}
	for _, w := range doc.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 || w.ResultDigest == "" {
			t.Errorf("%s: correct=%t attempted=%d failed=%d digest=%q", w.Name, w.Correct, w.Attempted, w.Failed, w.ResultDigest)
		}
		for _, e := range endToEndMetrics {
			s, ok := w.Metrics[e.name]
			if ok != e.reportedBy(w.Name) {
				t.Errorf("%s: metric %s present=%t, want %t", w.Name, e.name, ok, !ok)
			}
			if ok && e.gate > 0 && !(s.Median > 0) {
				t.Errorf("%s: gated metric %s = %v, must be positive", w.Name, e.name, s.Median)
			}
		}
	}

	// A file agrees with itself; a slowed copy does not.
	if code, stdout := bench("--compare", results, results); code != 0 {
		t.Errorf("--compare of a file with itself exited %d:\n%s", code, stdout)
	}
	slowed, err := readDoc(results) // a second, independent copy
	if err != nil {
		t.Fatal(err)
	}
	s := slowed.Workloads[0].Metrics["ops_per_s"]
	s.Median *= 0.7
	slowed.Workloads[0].Metrics["ops_per_s"] = s
	slowedPath := filepath.Join(out, "slowed.json")
	if err := writeJSON(slowedPath, slowed); err != nil {
		t.Fatal(err)
	}
	if code, stdout := bench("--compare", results, slowedPath); code != 1 || !strings.Contains(stdout, "ops_per_s") {
		t.Errorf("--compare against a 30%% slower run exited %d, want 1 naming ops_per_s:\n%s", code, stdout)
	}

	// The traced pass of one workload, as the driver runs it: the last
	// line carries every per-layer metric.
	code, stdout := bench("--workload", "serve-replay", "--trace", "1")
	if code != 0 {
		t.Fatalf("traced smoke run exited %d:\n%s", code, stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted == 0 {
		t.Errorf("traced run: correct=%t attempted=%d", line.Correct, line.Attempted)
	}
	for _, l := range layerMetrics {
		if m, ok := line.Metrics[l.name]; !ok || m.Unit != l.unit {
			t.Errorf("traced run: layer metric %s missing or unit %q, want %q", l.name, m.Unit, l.unit)
		}
	}
	if len(line.Metrics) != len(layerMetrics) {
		t.Errorf("traced run printed %d metrics, want the %d declared", len(line.Metrics), len(layerMetrics))
	}
	for _, f := range []string{"layers-serve-replay.json", "trace-serve-replay.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("traced run left no %s: %v", f, err)
		}
	}
}
