package nn

import (
	"math"

	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

// Fused conv-block forward. Sequential compiles its layer list into an
// execution plan in which Conv2D+BatchNorm2D+ReLU, Conv2D+ReLU, and
// Conv2D+BatchNorm2D runs execute as one fused pass: the conv GEMM
// output stays in its NHWC row-matrix form and a single epilogue
// performs normalization/activation while transposing to NCHW. The
// unfused sequence materializes the conv output (one transpose pass),
// then batch-norm re-reads it three times and writes its own output,
// then ReLU copies again — the fused pass eliminates the conv-output
// and batch-norm-output tensors entirely, two full activation-size
// round trips through memory.
//
// Bit-exactness: the GEMM is the very same MatMulT2BiasInto call on the
// same buffers; the epilogue reads identical values in the identical
// per-channel (image, position) order batch-norm uses for its float64
// statistics, so every mean, variance, running statistic, xhat, and
// activation is bit-identical to the unfused sequence at every
// parallelism level (fused_test.go pins this). Backward is untouched:
// the fused forward populates exactly the caches each layer's Backward
// reads (conv.cols/inShape/oh/ow, bn.xhat/invStd/shape, relu.mask).
type fusedConv struct {
	conv *Conv2D
	bn   *BatchNorm2D // nil for a Conv+ReLU block
	relu *ReLU        // nil for a Conv+BN block
	span int          // layers consumed from the Sequential (2 or 3)

	// Operands of the bnEpilogue in flight: the block's NCHW output, the
	// ReLU mask (nil for Conv+BN), and the forward's train flag.
	out   []float32
	mask  []bool
	train bool
}

// planStep is one unit of a Sequential's execution plan: a fused conv
// block or a single layer.
type planStep struct {
	fused *fusedConv
	layer Layer
}

// buildPlan scans the layer list for fusable conv blocks. The plan is
// invalidated by Add; Backward always walks the raw layer list, so the
// plan only shapes the forward pass.
func (s *Sequential) buildPlan() {
	s.plan = s.plan[:0]
	for i := 0; i < len(s.Layers); i++ {
		c, ok := s.Layers[i].(*Conv2D)
		if !ok {
			s.plan = append(s.plan, planStep{layer: s.Layers[i]})
			continue
		}
		f := &fusedConv{conv: c, span: 1}
		j := i + 1
		if j < len(s.Layers) {
			if bn, ok := s.Layers[j].(*BatchNorm2D); ok && bn.C == c.OutC {
				f.bn = bn
				f.span++
				j++
			}
		}
		if j < len(s.Layers) {
			if r, ok := s.Layers[j].(*ReLU); ok {
				f.relu = r
				f.span++
				j++
			}
		}
		if f.span == 1 {
			s.plan = append(s.plan, planStep{layer: c})
			continue
		}
		s.plan = append(s.plan, planStep{fused: f})
		i = j - 1
	}
	s.planBuilt = true
}

// forward runs the fused block: im2col + GEMM exactly as Conv2D.Forward
// would, then a single epilogue in place of the transpose/BN/ReLU
// chain.
func (f *fusedConv) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c := f.conv
	checkDims("Conv2D", x, 4)
	lstatConvFwd.Add(1)
	n := x.Shape[0]
	c.inShape = append(c.inShape[:0], x.Shape...)
	c.oh, c.ow = c.P.OutSize(x.Shape[2], x.Shape[3])
	c.cols = ensureBuf(c.cols, n*c.oh*c.ow, c.InC*c.P.KH*c.P.KW)
	tensor.Im2ColInto(c.cols, x, c.P)
	c.y = ensureBuf(c.y, n*c.oh*c.ow, c.OutC)
	tensor.MatMulT2BiasInto(c.y, c.cols, c.Weight.W, c.Bias.W)
	if f.bn == nil {
		return f.reluEpilogue(n)
	}
	return f.bnEpilogue(n, train)
}

// reluEpilogue handles Conv+ReLU: one pass over the GEMM output applies
// the activation while transposing NHWC→NCHW, writing the ReLU output
// and mask directly. Images land in disjoint output blocks, so they
// transpose independently like Conv2D.toNCHW.
func (f *fusedConv) reluEpilogue(n int) *tensor.Tensor {
	c, r := f.conv, f.relu
	hw := c.oh * c.ow
	total := n * c.OutC * hw
	if cap(r.mask) < total {
		r.mask = make([]bool, total)
	}
	r.mask = r.mask[:total]
	r.out = ensureBuf(r.out, n, c.OutC, c.oh, c.ow)
	parallel.ForKernel(n, (*fusedReLU)(f))
	return r.out
}

type fusedReLU fusedConv

// RunRange activates and transposes images [lo, hi).
func (f *fusedReLU) RunRange(lo, hi int) {
	out, mask, y := f.relu.out.Data, f.relu.mask, f.conv.y.Data
	hw, ch := f.conv.oh*f.conv.ow, f.conv.OutC
	for img := lo; img < hi; img++ {
		for pos := 0; pos < hw; pos++ {
			row := y[(img*hw+pos)*ch : (img*hw+pos+1)*ch]
			base := img*ch*hw + pos
			for cc, v := range row {
				di := base + cc*hw
				if v > 0 {
					out[di] = v
					mask[di] = true
				} else {
					out[di] = 0
					mask[di] = false
				}
			}
		}
	}
}

// bnEpilogue handles Conv+BN and Conv+BN+ReLU: per-channel statistics
// read the GEMM output in the identical (image, position) order
// BatchNorm2D.Forward sums its NCHW input, so the float64 accumulation
// — and therefore every downstream bit — matches the unfused sequence.
// Channels own disjoint statistic cells, xhat planes, and output
// planes, so they run in parallel exactly as in BatchNorm2D.
func (f *fusedConv) bnEpilogue(n int, train bool) *tensor.Tensor {
	c, b := f.conv, f.bn
	ch := c.OutC
	hw := c.oh * c.ow
	b.shape = append(b.shape[:0], n, ch, c.oh, c.ow)
	if cap(b.invStd) < ch {
		b.invStd = make([]float32, ch)
	}
	b.invStd = b.invStd[:ch]
	b.xhat = ensureBuf(b.xhat, n, ch, c.oh, c.ow)
	var out *tensor.Tensor
	var mask []bool
	if f.relu != nil {
		total := n * ch * hw
		if cap(f.relu.mask) < total {
			f.relu.mask = make([]bool, total)
		}
		f.relu.mask = f.relu.mask[:total]
		f.relu.out = ensureBuf(f.relu.out, n, ch, c.oh, c.ow)
		out, mask = f.relu.out, f.relu.mask
	} else {
		b.out = ensureBuf(b.out, n, ch, c.oh, c.ow)
		out = b.out
	}
	f.out, f.mask, f.train = out.Data, mask, train
	parallel.ForKernel(ch, (*fusedBN)(f))
	return out
}

type fusedBN fusedConv

// RunRange normalizes (and, with a mask, activates) channels [lo, hi).
func (f *fusedBN) RunRange(lo, hi int) {
	b := f.bn
	n, ch, hw := b.shape[0], b.shape[1], b.shape[2]*b.shape[3]
	y, xhat, o, mask := f.conv.y.Data, b.xhat.Data, f.out, f.mask
	cnt := float32(n * hw)
	for cc := lo; cc < hi; cc++ {
		var mean, variance float32
		if f.train {
			var s float64
			for img := 0; img < n; img++ {
				for pos := 0; pos < hw; pos++ {
					s += float64(y[(img*hw+pos)*ch+cc])
				}
			}
			mean = float32(s) / cnt
			var sq float64
			for img := 0; img < n; img++ {
				for pos := 0; pos < hw; pos++ {
					d := y[(img*hw+pos)*ch+cc] - mean
					sq += float64(d) * float64(d)
				}
			}
			variance = float32(sq) / cnt
			b.RunningMean.Data[cc] = (1-b.Momentum)*b.RunningMean.Data[cc] + b.Momentum*mean
			b.RunningVar.Data[cc] = (1-b.Momentum)*b.RunningVar.Data[cc] + b.Momentum*variance
		} else {
			mean = b.RunningMean.Data[cc]
			variance = b.RunningVar.Data[cc]
		}
		inv := float32(1 / math.Sqrt(float64(variance)+float64(b.Eps)))
		b.invStd[cc] = inv
		g, bt := b.Gamma.W.Data[cc], b.Beta.W.Data[cc]
		for img := 0; img < n; img++ {
			off := (img*ch + cc) * hw
			for pos := 0; pos < hw; pos++ {
				xh := (y[(img*hw+pos)*ch+cc] - mean) * inv
				xhat[off+pos] = xh
				v := g*xh + bt
				if mask != nil {
					if v > 0 {
						o[off+pos] = v
						mask[off+pos] = true
					} else {
						o[off+pos] = 0
						mask[off+pos] = false
					}
				} else {
					o[off+pos] = v
				}
			}
		}
	}
}
