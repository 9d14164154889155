// Command benchmark is the repository's one performance benchmark: seven
// named workloads measured end to end on both clocks (host wall time and
// the cost model's simulated seconds), and a per-layer ladder of probes
// that says which rung a change moved. See README.md in this directory.
//
//	go run ./benchmark                       every workload, tracing off
//	go run ./benchmark --trace               the traced pass: per-layer numbers
//	go run ./benchmark --workload sim-plan   one workload (what the driver runs)
//	go run ./benchmark --compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"socflow/internal/parallel"
)

// processStart anchors setup_s: package variables initialise before
// main, so this is process start to within the Go runtime's own init.
var processStart = time.Now()

// workers is P, the worker count every layer of the run is pinned to:
// GOMAXPROCS, parallel.Set and WithParallelism all get min(nproc, 4), so
// numbers from a large host still describe the 2–4 core boxes this
// repository is developed on.
var workers = min(runtime.NumCPU(), 4)

const schema = "socflow-benchmark/1"

// runSeconds is how long a workload's timed loop measures unless
// --seconds says otherwise; BENCHMARK.json's run_seconds repeats it.
const runSeconds = 10

// childEnv marks a re-executed harness process; the package's TestMain
// keys on it to run main instead of the tests.
const childEnv = "SOCFLOW_BENCH_CHILD"

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	smoke     bool
	out       string
	ladder    bool
	setupOnly bool
	compare   bool
	rest      []string
}

// fingerprint is embedded in every result file so numbers from
// different hosts, commits or settings are never compared silently.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	P          int     `json:"p"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	OSArch     string  `json:"os_arch"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Name string `json:"name"`
	// Op is the unit ops_per_s and the per-op metrics count.
	Op           string                `json:"op"`
	Correct      bool                  `json:"correct"`
	Attempted    int                   `json:"attempted"`
	Failed       int                   `json:"failed"`
	Phases       map[string]phaseCount `json:"phases"`
	Checks       []check               `json:"checks"`
	ResultDigest string                `json:"result_digest"`
	Metrics      map[string]summary    `json:"metrics"`
	// SelfTimeMS is, per span name of the harness's recorder, the time
	// spent in those spans and not in their children (traced pass only).
	SelfTimeMS map[string]float64 `json:"self_time_ms,omitempty"`
}

// resultDoc is the schema of results.json (untraced pass: end-to-end
// metrics) and layers.json (traced pass: per-workload layer metrics and
// self times, and the ladder).
type resultDoc struct {
	Schema      string             `json:"schema"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Traced      bool               `json:"traced"`
	Workloads   []workloadResult   `json:"workloads"`
	Ladder      map[string]summary `json:"ladder,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	runtime.GOMAXPROCS(workers)
	parallel.Set(workers)

	switch {
	case o.compare:
		return compareFiles(o.rest[0], o.rest[1], stdout, stderr)
	case o.setupOnly:
		return setupOnly(o, stdout, stderr)
	case o.workload != "":
		return runWorkload(o, stdout, stderr)
	default:
		return runAll(o, stdout, stderr)
	}
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	// The driver passes "--trace 0|1"; people type a bare "--trace". Fold
	// the two-token form into the one the flag package parses as a bool.
	var norm []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "--trace" || a == "-trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		norm = append(norm, a)
	}

	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames(), ", ")+" (default: all, one process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long each workload's timed loop measures (the acceptance driver passes BENCHMARK.json's run_seconds)")
	fs.BoolVar(&o.trace, "trace", false, "traced pass: per-layer metrics, spans and tracing overhead instead of end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to about a twentieth (functional check, numbers not comparable)")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory result files are written to")
	fs.BoolVar(&o.ladder, "ladder", true, "internal: the whole traced pass runs the workload-independent layer probes in its first child only")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: perform one set-up of --workload, print its duration, exit")
	fs.BoolVar(&o.compare, "compare", false, "compare two results.json files of one commit: --compare A.json B.json")
	if err := fs.Parse(norm); err != nil {
		return o, err
	}
	o.rest = fs.Args()
	switch {
	case o.compare && len(o.rest) != 2:
		return o, fmt.Errorf("--compare needs exactly two result files, got %d", len(o.rest))
	case !o.compare && len(o.rest) != 0:
		return o, fmt.Errorf("unexpected arguments %q", o.rest)
	case o.workload != "" && workloadByName(o.workload) == nil:
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	case o.setupOnly && o.workload == "":
		return o, fmt.Errorf("--setup-only needs --workload")
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds %v must be positive", o.seconds)
	}
	return o, nil
}

func (o options) fingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		P:          workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Smoke:      o.smoke,
	}
}

// commit names the source the binary was built from: the VCS stamp `go
// build` embeds, else what git says about the working directory (`go
// run` does not stamp), else "unknown" — the driver's checkouts are not
// git repositories. The ceiling keeps git from wandering above the
// directory the benchmark was started in.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			return withDirty(rev, dirty)
		}
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil || rev == "" {
		return "unknown"
	}
	status, err := git("status", "--porcelain", "--untracked-files=no")
	return withDirty(rev, err != nil || status != "")
}

func withDirty(rev string, dirty bool) string {
	if dirty {
		return rev + "+dirty"
	}
	return rev
}

// childArgs rebuilds the flags a re-executed harness process inherits.
func (o options) childArgs(extra ...string) []string {
	args := []string{
		"--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds),
		fmt.Sprintf("--trace=%t", o.trace),
		fmt.Sprintf("--smoke=%t", o.smoke),
		"--out", o.out,
	}
	return append(args, extra...)
}

// spawn re-executes this binary and waits for it: a fresh heap and
// fresh worker pools per workload, and a fresh process per set-up.
func spawn(args []string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = stdout, stderr
	return cmd.Run()
}

// runAll is the whole pass: every workload in its own process, then the
// per-workload files merged into results.json (or layers.json).
func runAll(o options, stdout, stderr io.Writer) int {
	start := time.Now()
	doc := resultDoc{Schema: schema, Fingerprint: o.fingerprint(), Traced: o.trace}
	failed := 0
	for i, w := range workloads {
		// The ladder does not depend on the workload; one child runs it.
		args := o.childArgs("--workload", w.name, fmt.Sprintf("--ladder=%t", i == 0))
		if err := spawn(args, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", w.name, err)
			failed++
		}
		part, err := readDoc(partPath(o, w.name))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s left no result: %v\n", w.name, err)
			continue
		}
		doc.Workloads = append(doc.Workloads, part.Workloads...)
		if part.Ladder != nil {
			doc.Ladder = part.Ladder
		}
	}
	name := "results.json"
	if o.trace {
		name = "layers.json"
	}
	path := filepath.Join(o.out, name)
	if err := writeJSON(path, doc); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# %d workloads, %d failed, %.1f s, P=%d %s commit %s seed %d -> %s\n",
		len(workloads), failed, time.Since(start).Seconds(), workers, runtime.Version(), doc.Fingerprint.Commit, o.seed, path)
	if failed > 0 {
		return 1
	}
	return 0
}

func partPath(o options, workload string) string {
	prefix := "results-"
	if o.trace {
		prefix = "layers-"
	}
	return filepath.Join(o.out, prefix+workload+".json")
}

func readDoc(path string) (*resultDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return &doc, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
