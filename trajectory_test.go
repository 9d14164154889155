package socflow

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// abFile is what scripts/ab.sh writes with AB_JSON=FILE: one or more
// paired A/B tables of the repo benchmark.
type abFile struct {
	Schema string    `json:"schema"`
	Tables []abTable `json:"tables"`
}

type abTable struct {
	Parent       string       `json:"parent"`
	ParentCommit string       `json:"parent_commit"`
	Change       string       `json:"change"`
	ChangeCommit string       `json:"change_commit"`
	Nproc        int          `json:"nproc"`
	BenchArgs    string       `json:"bench_args"`
	Pairs        int          `json:"pairs"`
	Workloads    []abWorkload `json:"workloads"`
}

type abWorkload struct {
	Workload      string     `json:"workload"`
	DigestEqual   bool       `json:"digest_equal"`
	ParentDigests []string   `json:"parent_digests"`
	ChangeDigests []string   `json:"change_digests"`
	Metrics       []abMetric `json:"metrics"`
}

type abMetric struct {
	Metric  string  `json:"metric"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound"`
	Parent  abSide  `json:"parent"`
	Change  abSide  `json:"change"`
	Ratio   float64 `json:"ratio"`
	Won     int     `json:"won"`
	Pairs   int     `json:"pairs"`
	Verdict string  `json:"verdict"`
}

type abSide struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Every BENCH_PR<n>.json at the root parses against the schema
// scripts/ab.sh writes, with no field unknown to it, and agrees with
// BENCHMARK.json and with itself: workloads and gated metrics that
// exist, their direction and bound, quartiles in order, ratios that are
// the medians' ratio, digest verdicts that match the digests listed,
// and "gain" only where the change won at least nine pairs in ten.
func TestBenchTrajectoryFilesMatchSchema(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	metrics := map[string]abMetric{}
	for _, m := range spec.EndToEnd {
		metrics[m.Name] = abMetric{Better: m.Better, Bound: m.Bound}
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json at the root")
	}
	name := regexp.MustCompile(`^BENCH_PR[0-9]+\.json$`)
	commit := regexp.MustCompile(`^([0-9a-f]{40})?$`)
	verdicts := map[string]bool{"gain": true, "ok": true, "unresolved": true, "REGRESSED": true}
	for _, path := range files {
		if !name.MatchString(path) {
			t.Errorf("%s: want BENCH_PR<n>.json", path)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var f abFile
		if err := dec.Decode(&f); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if f.Schema != "socflow-ab/1" || len(f.Tables) == 0 {
			t.Errorf("%s: schema %q with %d tables, want socflow-ab/1 with some", path, f.Schema, len(f.Tables))
		}
		for ti, tb := range f.Tables {
			at := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s table %d: "+format, append([]any{path, ti}, args...)...)
			}
			if tb.Parent == "" || tb.Change == "" || !commit.MatchString(tb.ParentCommit) || !commit.MatchString(tb.ChangeCommit) {
				at("revisions %q (%q) and %q (%q)", tb.Parent, tb.ParentCommit, tb.Change, tb.ChangeCommit)
			}
			if tb.Nproc < 1 || tb.Pairs < 1 || len(tb.Workloads) == 0 {
				at("nproc %d, %d pairs, %d workloads", tb.Nproc, tb.Pairs, len(tb.Workloads))
			}
			for _, w := range tb.Workloads {
				if !workloads[w.Workload] {
					at("unknown workload %q", w.Workload)
				}
				same := len(w.ParentDigests) == 1 && len(w.ChangeDigests) == 1 && w.ParentDigests[0] == w.ChangeDigests[0]
				if len(w.ParentDigests) == 0 || len(w.ChangeDigests) == 0 || w.DigestEqual != same {
					at("%s: digest_equal %v for %q vs %q", w.Workload, w.DigestEqual, w.ParentDigests, w.ChangeDigests)
				}
				if len(w.Metrics) == 0 {
					at("%s: no metrics", w.Workload)
				}
				for _, m := range w.Metrics {
					want, ok := metrics[m.Metric]
					switch {
					case !ok:
						at("%s: unknown metric %q", w.Workload, m.Metric)
					case m.Better != want.Better || m.Bound != want.Bound:
						at("%s %s: better %q bound %v, BENCHMARK.json says %q %v", w.Workload, m.Metric, m.Better, m.Bound, want.Better, want.Bound)
					case m.Pairs != tb.Pairs || m.Won < 0 || m.Won > m.Pairs || !verdicts[m.Verdict]:
						at("%s %s: won %d of %d pairs (table %d), verdict %q", w.Workload, m.Metric, m.Won, m.Pairs, tb.Pairs, m.Verdict)
					case m.Verdict == "gain" && m.Won*10 < m.Pairs*9:
						at("%s %s: gain with %d of %d pairs won", w.Workload, m.Metric, m.Won, m.Pairs)
					}
					for _, s := range []abSide{m.Parent, m.Change} {
						if !(s.Q1 <= s.Median && s.Median <= s.Q3) {
							at("%s %s: quartiles out of order: %+v", w.Workload, m.Metric, s)
						}
					}
					if m.Parent.Median != 0 {
						// Medians and ratio are printed to six significant digits.
						if r := m.Change.Median / m.Parent.Median; math.Abs(r-m.Ratio) > 1e-4*math.Abs(r) {
							at("%s %s: ratio %v, medians give %v", w.Workload, m.Metric, m.Ratio, r)
						}
					}
				}
			}
		}
	}
}
