package nn

import (
	"math"

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
// activation is bit-identical to the unfused sequence (fused_test.go
// pins this). Backward is untouched: a train forward populates exactly
// the caches each layer's Backward reads (conv.cols/inShape/oh/ow,
// bn.xhat/invStd/shape, relu.out); an eval forward skips bn's.
type fusedConv struct {
	conv *Conv2D
	bn   *BatchNorm2D // nil for a Conv+ReLU block
	relu *ReLU        // nil for a Conv+BN block
	span int          // layers consumed from the Sequential (2 or 3)
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
	f.conv.gemmForward(x, train)
	if f.bn == nil {
		return f.reluEpilogue()
	}
	return f.bnEpilogue(train)
}

// reluEpilogue handles Conv+ReLU: one pass over the GEMM output applies
// the activation while transposing NHWC→NCHW, writing the ReLU output
// directly.
func (f *fusedConv) reluEpilogue() *tensor.Tensor {
	c, r := f.conv, f.relu
	n, hw, ch := c.inShape[0], c.oh*c.ow, c.OutC
	r.out = ensureBuf(r.out, n, ch, c.oh, c.ow)
	out, y := r.out.Data, c.y.Data
	for img := 0; img < n; img++ {
		for pos := 0; pos < hw; pos++ {
			row := y[(img*hw+pos)*ch : (img*hw+pos+1)*ch]
			base := img*ch*hw + pos
			for cc, v := range row {
				out[base+cc*hw] = relu(v)
			}
		}
	}
	return r.out
}

// bnEpilogue handles Conv+BN and Conv+BN+ReLU: per-channel statistics
// read the GEMM output in the identical (image, position) order
// BatchNorm2D.Forward sums its NCHW input, so the float64 accumulation
// — and therefore every downstream bit — matches the unfused sequence.
// An eval pass normalizes with the running statistics and writes no
// xhat or invStd, so the BN's Backward refuses to follow it.
func (f *fusedConv) bnEpilogue(train bool) *tensor.Tensor {
	c, b := f.conv, f.bn
	n, ch, hw := c.inShape[0], c.OutC, c.oh*c.ow
	b.shape = append(b.shape[:0], n, ch, c.oh, c.ow)
	b.eval = !train
	var xhat []float32
	if train {
		if cap(b.invStd) < ch {
			b.invStd = make([]float32, ch)
		}
		b.invStd = b.invStd[:ch]
		b.xhat = ensureBuf(b.xhat, n, ch, c.oh, c.ow)
		xhat = b.xhat.Data
	}
	var out *tensor.Tensor
	if f.relu != nil {
		f.relu.out = ensureBuf(f.relu.out, n, ch, c.oh, c.ow)
		out = f.relu.out
	} else {
		b.out = ensureBuf(b.out, n, ch, c.oh, c.ow)
		out = b.out
	}
	y, o, withReLU := c.y.Data, out.Data, f.relu != nil
	cnt := float32(n * hw)
	for cc := 0; cc < ch; cc++ {
		var mean, variance float32
		if train {
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
		g, bt := b.Gamma.W.Data[cc], b.Beta.W.Data[cc]
		if train {
			b.invStd[cc] = inv
		}
		for img := 0; img < n; img++ {
			off := (img*ch + cc) * hw
			for pos := 0; pos < hw; pos++ {
				xh := (y[(img*hw+pos)*ch+cc] - mean) * inv
				if train {
					xhat[off+pos] = xh
				}
				v := g*xh + bt
				if withReLU {
					v = relu(v)
				}
				o[off+pos] = v
			}
		}
	}
	return out
}
