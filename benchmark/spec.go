package main

// This file is the benchmark's vocabulary: the workload and metric
// names every later performance issue refers to. BENCHMARK.json at the
// repository root repeats the subset the acceptance driver gates; the
// lint test keeps the two in step.

// endToEnd declares one metric a user of the system sees.
type endToEnd struct {
	name, unit string
	higher     bool // true when a larger value is better
	// bound is how far the median may worsen before it counts as a
	// regression: a share of the baseline median, or an absolute
	// difference when abs is set (accuracies and shares, where "3
	// points" is the meaningful size).
	bound float64
	abs   bool
	// gate is the metric's bound in BENCHMARK.json, always a share of the
	// baseline median; 0 keeps the metric out of that file. The driver
	// needs a metric to exist, be non-zero and be steady across seeds on
	// every workload; the others are workload-specific or seed-sensitive
	// and are held by --compare (same seed, absolute bounds) instead.
	gate float64
	// on names the workloads that report the metric (nil = all).
	on []string
	// aliasOf marks a second name for another metric's numbers: the issue's
	// per-workload throughput names, which say what the workload's op is.
	// --compare checks the metric itself, not its aliases.
	aliasOf string
}

var trainingWorkloads = []string{"train-conv", "train-small", "mesh-dp", "mesh-pipeline"}

var endToEndMetrics = []endToEnd{
	// bound is what --compare holds two runs of one seed to; gate is what
	// the driver holds runs of different seeds to. Ten different-seed runs
	// of a 10 s median spread 3-13 % on a quiet box, and the box has slow
	// spells besides (README.md), so the two host-time gates are as wide as
	// BENCHMARK.json allows; the same-seed throughput bound is the issue's
	// 10 %.
	{name: "setup_s", unit: "s", bound: 0.25, gate: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.10, gate: 0.25},
	{name: "samples_per_s", unit: "1/s", higher: true, bound: 0.10, on: trainingWorkloads, aliasOf: "ops_per_s"},
	{name: "requests_per_s", unit: "1/s", higher: true, bound: 0.10, on: []string{"serve-replay"}, aliasOf: "ops_per_s"},
	{name: "candidates_per_s", unit: "1/s", higher: true, bound: 0.10, on: []string{"sim-plan"}, aliasOf: "ops_per_s"},
	{name: "runs_per_s", unit: "1/s", higher: true, bound: 0.10, on: []string{"exp-grid"}, aliasOf: "ops_per_s"},
	// For one seed the count repeats to ~0.5 %; across seeds train-conv's
	// spreads 2-4.4 % (the Mixed controller splits batches differently),
	// so the driver's different-seed gate is wider than --compare's bound.
	{name: "allocs_per_op", unit: "count", bound: 0.05, gate: 0.15},
	{name: "alloc_bytes_per_op", unit: "B", bound: 0.05, gate: 0.05},
	// 0.1 points of the 7.35 % this commit measures is a 0.0136 share.
	{name: "sim_fidelity_err_pct", unit: "%", bound: 0.1, abs: true, gate: 0.0136},
	{name: "final_accuracy", unit: "share", higher: true, bound: 0.03, abs: true, on: trainingWorkloads},
	{name: "slo_attainment", unit: "share", higher: true, bound: 0.005, abs: true, on: []string{"serve-replay"}},
	{name: "failed_share", unit: "share", bound: 0, abs: true},
}

func endToEndByName(name string) (endToEnd, bool) {
	for _, m := range endToEndMetrics {
		if m.name == name {
			return m, true
		}
	}
	return endToEnd{}, false
}

func (m endToEnd) reportedBy(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

// worse reports how much worse `got` is than `base` in the metric's own
// bound units (relative share or absolute difference); negative means
// better.
func (m endToEnd) worse(base, got float64) float64 {
	d := got - base
	if m.higher {
		d = -d
	}
	if m.abs || base == 0 {
		return d
	}
	if base < 0 {
		base = -base
	}
	return d / base
}
