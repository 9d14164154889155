package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"socflow/internal/metrics"
)

// setupsPerRun is how many times a run sets up, each in a fresh
// process (this one and setupsPerRun-1 children); setup_s is the median.
const setupsPerRun = 3

// timedRep is one repetition of the closed loop with its costs.
type timedRep struct {
	*repetition
	seconds        float64
	mallocs, bytes uint64
	traced         bool
}

// measure runs the workload once and records wall time and allocation
// deltas around it. ReadMemStats stops the world, so it stays outside
// the timed region.
func measure(ctx context.Context, w *workload, o options, reg *metrics.Registry) (timedRep, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := w.run(ctx, o.seed, o.smoke, reg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return timedRep{
		repetition: rep,
		seconds:    elapsed.Seconds(),
		mallocs:    after.Mallocs - before.Mallocs,
		bytes:      after.TotalAlloc - before.TotalAlloc,
		traced:     reg != nil,
	}, err
}

// setupOnly is the body of a --setup-only child: process start, input
// generation and the warm-up repetition, i.e. everything a user waits
// for before the first steady-state repetition. It prints the duration.
func setupOnly(o options, stdout, stderr io.Writer) int {
	w := workloadByName(o.workload)
	if _, err := w.run(context.Background(), o.seed, o.smoke, nil); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s set-up: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%.9f\n", time.Since(processStart).Seconds())
	return 0
}

// outcome accumulates one workload run's accounting.
type outcome struct {
	res   workloadResult
	first *repetition // the warm-up repetition: the reference every other must equal
}

func newOutcome(w *workload) *outcome {
	return &outcome{res: workloadResult{
		Name: w.name, Op: w.op, Correct: true,
		Phases:  map[string]phaseCount{},
		Metrics: map[string]summary{},
	}}
}

func (oc *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		oc.res.Correct = false
	}
	oc.res.Checks = append(oc.res.Checks, c)
}

func (oc *outcome) count(phase string, ok bool) {
	p := oc.res.Phases[phase]
	p.Attempted++
	if ok {
		p.Succeeded++
	} else {
		p.Failed++
	}
	oc.res.Phases[phase] = p
}

// account books one timed repetition: an error, or a result that is not
// bit-identical to the warm-up's, fails the repetition and all its work;
// shed or cancelled requests fail individually.
func (oc *outcome) account(phase string, rep timedRep, err error) bool {
	ok := err == nil && rep.digest == oc.first.digest
	oc.count(phase, ok)
	ops := oc.first.ops
	if rep.repetition != nil {
		ops = rep.ops
	}
	oc.res.Attempted += ops
	switch {
	case !ok:
		oc.res.Failed += ops
	default:
		oc.res.Failed += rep.failedOps
	}
	return ok
}

// runWorkload measures one workload in this process and prints, last,
// the one-line JSON object the acceptance driver reads.
func runWorkload(o options, stdout, stderr io.Writer) int {
	sinceStart := time.Since(processStart) // this process's share of set-up so far
	w := workloadByName(o.workload)
	ctx := context.Background()
	oc := newOutcome(w)
	rec := newRecorder(w.name)
	root := rec.begin("benchmark")

	warm := rec.begin("warm-up")
	warmStart := time.Now()
	first, err := w.run(ctx, o.seed, o.smoke, nil)
	sinceStart += time.Since(warmStart)
	rec.end(warm)
	oc.count("setup", err == nil)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s warm-up repetition: %v\n", w.name, err)
		return 1
	}
	oc.first = first
	oc.res.ResultDigest = first.digest

	// The closed loop: one goroutine, the next repetition starts when the
	// previous one returns. The traced pass alternates untraced and
	// traced repetitions so both see the same machine state.
	minReps := 3
	if o.smoke {
		minReps = 2
	}
	if o.trace {
		minReps *= 2
	}
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	var reps []timedRep
	loop := rec.begin("timed-loop")
	// The loop ends when one more repetition would overrun --seconds.
	var last float64
	for start := time.Now(); len(reps) < minReps || time.Since(start).Seconds()+last <= o.seconds; {
		var reg *metrics.Registry
		name := "repetition"
		if o.trace && !w.noRegistry && len(reps)%2 == 1 {
			reg = metrics.New()
			name = "repetition-traced"
		}
		id := rec.begin(name)
		rep, err := measure(ctx, w, o, reg)
		rec.end(id)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s repetition %d: %v\n", w.name, len(reps)+1, err)
		}
		if oc.account("timed", rep, err) {
			reps = append(reps, rep)
		}
		last = rep.seconds
		if oc.res.Phases["timed"].Failed >= minReps {
			break // a broken build fails every repetition; do not spin for --seconds
		}
	}
	rec.end(loop)
	timed := oc.res.Phases["timed"]
	oc.check("repetitions-succeed", timed.Failed == 0, "%d of %d repetitions errored or differed from the first", timed.Failed, timed.Attempted)
	if att, ok := first.quality["slo_attainment"]; ok {
		oc.check("slo-holds", att >= 0.99, "simulated SLO attainment %.4f < 0.99", att)
	}
	if acc, ok := first.quality["final_accuracy"]; ok && !o.smoke {
		// Every training workload has ten classes; the worst of 34 seeds
		// tried reaches 0.32 on train-conv, the rest are far above.
		oc.check("learns", acc >= 0.2, "final accuracy %.4f is within twice chance (0.1)", acc)
	}
	if len(reps) == 0 {
		return finish(o, oc, nil, rec, root, stdout, stderr)
	}

	if o.trace {
		scopedLayerMetrics(oc, w, reps, gcBefore)
		var ladder map[string]summary
		if o.ladder {
			ladder = runLadder(ctx, o, rec, stderr)
		}
		return finish(o, oc, ladder, rec, root, stdout, stderr)
	}

	// This process's set-up is one sample; the others each take a fresh
	// process: process start -> end of its warm-up repetition. They run
	// after the timed loop, ten seconds from the first sample, so a start
	// on a machine that sat idle (70 % slower here) or a slow spell of the
	// box is one sample of three.
	setups := []float64{sinceStart.Seconds()}
	if !o.smoke {
		for i := 1; i < setupsPerRun; i++ {
			id := rec.begin("set-up process")
			var buf bytes.Buffer
			err := spawn(o.childArgs("--workload", w.name, "--setup-only"), &buf, stderr)
			rec.end(id)
			var s float64
			if err == nil {
				_, err = fmt.Sscan(buf.String(), &s)
			}
			oc.count("setup", err == nil)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s set-up process: %v\n", w.name, err)
				continue
			}
			setups = append(setups, s)
		}
	}

	perOp := func(unit string, f func(timedRep) float64) summary {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return summarize(unit, vals)
	}
	m := oc.res.Metrics
	m["setup_s"] = summarize("s", setups)
	m["ops_per_s"] = perOp("1/s", func(r timedRep) float64 { return float64(r.ops) / r.seconds })
	m["allocs_per_op"] = perOp("count", func(r timedRep) float64 { return float64(r.mallocs) / float64(r.ops) })
	m["alloc_bytes_per_op"] = perOp("B", func(r timedRep) float64 { return float64(r.bytes) / float64(r.ops) })
	for _, e := range endToEndMetrics {
		if e.aliasOf != "" && e.reportedBy(w.name) {
			m[e.name] = m[e.aliasOf]
		}
	}
	m["sim_fidelity_err_pct"] = constant("%", simFidelityErrPct())
	for name, v := range first.quality {
		m[name] = constant("share", v)
	}
	m["failed_share"] = constant("share", float64(oc.res.Failed)/float64(oc.res.Attempted))
	return finish(o, oc, nil, rec, root, stdout, stderr)
}

// finish prints the human-readable lines, writes the workload's result
// file (and trace), and prints the driver's JSON line last.
func finish(o options, oc *outcome, ladder map[string]summary, rec *recorder, root int, stdout, stderr io.Writer) int {
	rec.end(root)
	res := oc.res
	printMetrics(stdout, res.Name, res.Metrics)
	if ladder != nil {
		printMetrics(stdout, "ladder", ladder)
	}
	for _, phase := range []string{"setup", "timed"} {
		p := res.Phases[phase]
		fmt.Fprintf(stdout, "%-14s phase %-6s attempted=%d succeeded=%d failed=%d\n", res.Name, phase, p.Attempted, p.Succeeded, p.Failed)
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(stdout, "%-14s CHECK FAILED %s: %s\n", res.Name, c.Name, c.Detail)
		}
	}
	fmt.Fprintf(stdout, "%-14s %s ops attempted=%d failed=%d digest=%s correct=%t\n", res.Name, res.Op, res.Attempted, res.Failed, res.ResultDigest, res.Correct)

	if o.trace {
		res.SelfTimeMS = rec.selfTimesMS()
		if err := rec.writeChromeTrace(tracePath(o, res.Name)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	doc := resultDoc{Schema: schema, Fingerprint: o.fingerprint(), Traced: o.trace, Workloads: []workloadResult{res}, Ladder: ladder}
	if err := writeJSON(partPath(o, res.Name), doc); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	// The driver's line: end-to-end metrics it gates on an untraced run,
	// every per-layer metric on a traced one.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, s := range res.Metrics {
		if e, ok := endToEndByName(name); ok && e.gate == 0 {
			continue
		}
		line.Metrics[name] = value{s.Median, s.Unit}
	}
	for name, s := range ladder {
		line.Metrics[name] = value{s.Median, s.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, scope string, ms map[string]summary) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := ms[name]
		fmt.Fprintf(w, "%-14s %-34s %-6s median=%-13.6g q1=%-13.6g q3=%-13.6g n=%d\n", scope, name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
}
