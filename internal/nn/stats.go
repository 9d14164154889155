package nn

import (
	"time"

	"socflow/internal/tensor"
)

// KernelStats counts the tensor kernels and layer passes of a model's
// Conv2D and Dense layers — the only callers of tensor's GEMM and
// im2col. Each such layer counts into its own copy with plain adds: a
// layer runs on one goroutine at a time, so nothing is shared between
// concurrent runs, and a run sums its models once they are idle
// (Sequential.KernelStats).
type KernelStats struct {
	// GEMMOps counts GEMM calls, GEMMFLOPs their total 2·m·k·n FLOPs.
	GEMMOps, GEMMFLOPs int64
	// Im2ColOps counts convolution lowerings.
	Im2ColOps int64
	// GEMMNanos is wall time inside GEMM calls, 0 unless the layer's
	// timing is on (Sequential.TimeKernels).
	GEMMNanos int64
	// Layer passes.
	ConvForward, ConvBackward   int64
	DenseForward, DenseBackward int64
}

// Add adds o's counts to s.
func (s *KernelStats) Add(o KernelStats) {
	s.GEMMOps += o.GEMMOps
	s.GEMMFLOPs += o.GEMMFLOPs
	s.Im2ColOps += o.Im2ColOps
	s.GEMMNanos += o.GEMMNanos
	s.ConvForward += o.ConvForward
	s.ConvBackward += o.ConvBackward
	s.DenseForward += o.DenseForward
	s.DenseBackward += o.DenseBackward
}

// kernelCounter is one Conv2D's or Dense's counts and its GEMM timing
// switch.
type kernelCounter struct {
	KernelStats
	timed bool
}

// beginGEMM counts one m×k×n GEMM and returns its timing anchor (zero
// when timing is off).
func (c *kernelCounter) beginGEMM(m, k, n int) time.Time {
	c.GEMMOps++
	c.GEMMFLOPs += 2 * int64(m) * int64(k) * int64(n)
	if c.timed {
		return time.Now()
	}
	return time.Time{}
}

// endGEMM closes the timing window beginGEMM opened.
func (c *kernelCounter) endGEMM(t0 time.Time) {
	if c.timed {
		c.GEMMNanos += int64(time.Since(t0))
	}
}

// counters calls fn on the kernel counter of every Conv2D and Dense in
// the model, nested blocks included.
func (s *Sequential) counters(fn func(*kernelCounter)) {
	walkLayers(s, func(l Layer) {
		switch v := l.(type) {
		case *Conv2D:
			fn(&v.kc)
		case *Dense:
			fn(&v.kc)
		}
	})
}

// KernelStats sums the counts of the model's Conv2D and Dense layers.
// Read it only while no goroutine runs the model.
func (s *Sequential) KernelStats() KernelStats {
	var t KernelStats
	s.counters(func(c *kernelCounter) { t.Add(c.KernelStats) })
	return t
}

// ReserveEval sizes the model's forward buffers for an eval forward of
// x's shape by running one, then puts every kernel count back: the
// forwards that follow at that batch or a smaller one allocate nothing,
// and the counts say only what they did. Its output is not read.
func (s *Sequential) ReserveEval(x *tensor.Tensor) {
	var saved []KernelStats
	s.counters(func(c *kernelCounter) { saved = append(saved, c.KernelStats) })
	s.Forward(x, false)
	i := 0
	s.counters(func(c *kernelCounter) { c.KernelStats, i = saved[i], i+1 })
}

// TimeKernels turns on GEMM wall-time measurement (two clock reads per
// GEMM) for every Conv2D and Dense in the model.
func (s *Sequential) TimeKernels() {
	s.counters(func(c *kernelCounter) { c.timed = true })
}
