package main

import (
	"math"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/core"
	"socflow/internal/nn"
)

// simFidelityErrPct is the simulated clock's quality figure: the mean
// absolute percentage error of the cost model against the ten numbers
// the paper publishes for the hardware it models (the anchors
// internal/exp/measure.go cites) — Fig. 4(a) single-SoC training hours
// and Fig. 4(b) ring / parameter-server latencies. It depends only on
// the cost-model constants, so it is the same on every workload and
// seed of a commit and moves only when a change re-calibrates the model.
func simFidelityErrPct() float64 {
	vgg, r18 := nn.MustSpec("vgg11"), nn.MustSpec("resnet18")
	var sum float64
	var n int
	anchor := func(paper, model float64) {
		sum += math.Abs(model-paper) / paper * 100
		n++
	}

	// Fig. 4(a): end-to-end hours on one SoC, CPU FP32 and NPU INT8.
	one := cluster.New(cluster.Config{NumSoCs: 1})
	hours := func(spec *nn.Spec, proc cluster.Processor) float64 {
		steps := 50000 / 64 * spec.EpochsToConverge
		return float64(steps) * one.StepTime(0, spec, 64, proc) / 3600
	}
	anchor(29.1, hours(vgg, cluster.CPU))
	anchor(7.5, hours(vgg, cluster.NPU))
	anchor(233, hours(r18, cluster.CPU))
	anchor(36, hours(r18, cluster.NPU))

	// Fig. 4(b): per-synchronization latency in ms.
	ringMS := func(socs int, spec *nn.Spec) float64 {
		clu := cluster.New(cluster.Config{NumSoCs: socs})
		return 1000 * collective.RingAllReduceTime(clu, core.AllSoCs(clu), float64(spec.GradBytes()))
	}
	psMS := func(socs int, spec *nn.Spec) float64 {
		clu := cluster.New(cluster.Config{NumSoCs: socs})
		return 1000 * collective.PSTime(clu, core.AllSoCs(clu), 0, float64(spec.GradBytes()))
	}
	anchor(540, ringMS(5, vgg))
	anchor(699, ringMS(5, r18))
	anchor(1248, ringMS(32, vgg))
	anchor(2225, ringMS(32, r18))
	anchor(20593, psMS(32, vgg))
	anchor(26505, psMS(32, r18))

	return sum / float64(n)
}
