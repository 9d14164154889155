package core

import (
	"sync"

	"socflow/internal/cluster"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/simnet"
)

// KernelHarvest collects one run's kernel and simulated-network counts
// for its registry. The run tracks every model it builds (Job.BuildModel
// does); each model's Conv2D and Dense layers count their own GEMMs,
// im2cols and passes. It also tracks every cluster it prices on (the
// epoch driver does); each cluster counts what its network simulates.
// Finish adds the sums to the registry, so concurrent runs never see
// each other's kernels or flows.
type KernelHarvest struct {
	reg *metrics.Registry

	mu     sync.Mutex
	models []*nn.Sequential
	nets   []trackedNet
}

// trackedNet is a tracked cluster and its counters when tracking began.
type trackedNet struct {
	c  *cluster.Cluster
	s0 simnet.Stats
}

// BeginKernelHarvest starts a harvest into reg. A nil reg yields a nil
// harvest, on which Track, TrackNet and Finish do nothing.
func BeginKernelHarvest(reg *metrics.Registry) *KernelHarvest {
	if reg == nil {
		return nil
	}
	return &KernelHarvest{reg: reg}
}

// TrackNet adds c's network to the run's: Finish publishes what c
// simulates from now on. Tracking c again changes nothing.
func (h *KernelHarvest) TrackNet(c *cluster.Cluster) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, n := range h.nets {
		if n.c == c {
			return
		}
	}
	h.nets = append(h.nets, trackedNet{c, c.NetStats()})
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

// Finish publishes the tracked models' counts and what the tracked
// clusters simulated into the registry. Call it once the run has
// returned and its models are idle.
func (h *KernelHarvest) Finish() {
	if h == nil {
		return
	}
	var k nn.KernelStats
	h.mu.Lock()
	for _, m := range h.models {
		k.Add(m.KernelStats())
	}
	var sd simnet.Stats
	for _, n := range h.nets {
		d := n.c.NetStats().Delta(n.s0)
		sd.Flows += d.Flows
		sd.Bytes += d.Bytes
		sd.SimSeconds += d.SimSeconds
	}
	h.mu.Unlock()
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
