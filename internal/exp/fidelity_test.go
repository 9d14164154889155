package exp

import (
	"math"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/core"
	"socflow/internal/nn"
)

// simFidelityErrPct is the cost model's mean absolute percentage error
// against the ten Fig. 4(a)/(b) numbers the paper publishes for the
// hardware it models — the benchmark's sim_fidelity_err_pct. It moves
// only when a change re-calibrates the model, and such a change must
// update this constant (and say why) in the same commit.
const simFidelityErrPct = 7.35211303903227

// TestFig4AnchorsPinSimFidelity recomputes the ten anchors with the
// calls ExpFig4a and ExpFig4b make and pins their mean error, so the
// model, the experiments and the benchmark's figure cannot drift apart
// unnoticed.
func TestFig4AnchorsPinSimFidelity(t *testing.T) {
	vgg, r18 := nn.MustSpec("vgg11"), nn.MustSpec("resnet18")
	one := cluster.New(cluster.Config{NumSoCs: 1})
	// hours is ExpFig4a's cell: end-to-end CIFAR-10 training on one SoC.
	hours := func(spec *nn.Spec, proc cluster.Processor) func() float64 {
		return func() float64 {
			steps := 50000 / 64 * spec.EpochsToConverge
			return float64(steps) * one.StepTime(0, spec, 64, proc) / 3600
		}
	}
	// ringMS and psMS are ExpFig4b's cells: one synchronization of the
	// model's gradients over every SoC of the cluster, in ms.
	ringMS := func(socs int, spec *nn.Spec) func() float64 {
		return func() float64 {
			clu := cluster.New(cluster.Config{NumSoCs: socs})
			return 1000 * collective.RingAllReduceTime(clu, core.AllSoCs(clu), float64(spec.GradBytes()))
		}
	}
	psMS := func(socs int, spec *nn.Spec) func() float64 {
		return func() float64 {
			clu := cluster.New(cluster.Config{NumSoCs: socs})
			return 1000 * collective.PSTime(clu, core.AllSoCs(clu), 0, float64(spec.GradBytes()))
		}
	}
	anchors := []struct {
		fig, what string
		paper     float64
		model     func() float64
	}{
		{"4(a)", "VGG-11 CPU FP32 h", 29.1, hours(vgg, cluster.CPU)},
		{"4(a)", "VGG-11 NPU INT8 h", 7.5, hours(vgg, cluster.NPU)},
		{"4(a)", "ResNet-18 CPU FP32 h", 233, hours(r18, cluster.CPU)},
		{"4(a)", "ResNet-18 NPU INT8 h", 36, hours(r18, cluster.NPU)},
		{"4(b)", "VGG-11 5-SoC ring ms", 540, ringMS(5, vgg)},
		{"4(b)", "ResNet-18 5-SoC ring ms", 699, ringMS(5, r18)},
		{"4(b)", "VGG-11 32-SoC ring ms", 1248, ringMS(32, vgg)},
		{"4(b)", "ResNet-18 32-SoC ring ms", 2225, ringMS(32, r18)},
		{"4(b)", "VGG-11 32-SoC PS ms", 20593, psMS(32, vgg)},
		{"4(b)", "ResNet-18 32-SoC PS ms", 26505, psMS(32, r18)},
	}
	var sum float64
	for _, a := range anchors {
		m := a.model()
		errPct := math.Abs(m-a.paper) / a.paper * 100
		t.Logf("Fig. %s %-26s paper %8.1f  model %8.1f  err %5.1f%%", a.fig, a.what, a.paper, m, errPct)
		sum += errPct
	}
	if got := sum / float64(len(anchors)); math.Abs(got-simFidelityErrPct) > 1e-9 {
		t.Fatalf("mean error over the Fig. 4 anchors = %.14g%%, want %.14g%%", got, simFidelityErrPct)
	}
}
