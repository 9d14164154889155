package core

import (
	"sync"

	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/simnet"
)

// KernelHarvest collects one run's kernel counts for its registry. The
// run tracks every model it builds (Job.BuildModel does); each model's
// Conv2D and Dense layers count their own GEMMs, im2cols and passes, and
// Finish adds the sums to the registry, so concurrent runs never see
// each other's kernels. simnet's counters are still process-global: a
// run's simnet.* figures are a snapshot delta that folds in whatever
// other runs simulate meanwhile.
type KernelHarvest struct {
	reg *metrics.Registry
	s0  simnet.Stats

	mu     sync.Mutex
	models []*nn.Sequential
}

// BeginKernelHarvest starts a harvest into reg. A nil reg yields a nil
// harvest, on which Track and Finish do nothing.
func BeginKernelHarvest(reg *metrics.Registry) *KernelHarvest {
	if reg == nil {
		return nil
	}
	return &KernelHarvest{reg: reg, s0: simnet.SnapshotStats()}
}

// Track adds m to the run's models and turns on its GEMM timing, which
// the tensor.gemm.seconds gauge needs. It returns m.
func (h *KernelHarvest) Track(m *nn.Sequential) *nn.Sequential {
	if h == nil {
		return m
	}
	m.TimeKernels()
	h.mu.Lock()
	h.models = append(h.models, m)
	h.mu.Unlock()
	return m
}

// Finish publishes the tracked models' counts and the simnet delta into
// the registry. Call it once the run has returned and its models are
// idle.
func (h *KernelHarvest) Finish() {
	if h == nil {
		return
	}
	var k nn.KernelStats
	h.mu.Lock()
	for _, m := range h.models {
		k.Add(m.KernelStats())
	}
	h.mu.Unlock()
	sd := simnet.SnapshotStats().Delta(h.s0)
	reg := h.reg
	reg.Counter("tensor.gemm.ops").Add(k.GEMMOps)
	reg.Counter("tensor.gemm.flops").Add(k.GEMMFLOPs)
	reg.Counter("tensor.im2col.ops").Add(k.Im2ColOps)
	reg.Gauge("tensor.gemm.seconds").Add(float64(k.GEMMNanos) / 1e9)
	reg.Counter("nn.conv.forward").Add(k.ConvForward)
	reg.Counter("nn.conv.backward").Add(k.ConvBackward)
	reg.Counter("nn.dense.forward").Add(k.DenseForward)
	reg.Counter("nn.dense.backward").Add(k.DenseBackward)
	reg.Counter("simnet.flows").Add(sd.Flows)
	reg.Counter("simnet.bytes").Add(sd.Bytes)
	reg.Gauge("simnet.makespan.seconds").Add(sd.SimSeconds)
}
