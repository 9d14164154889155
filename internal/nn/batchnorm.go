package nn

import (
	"math"

	"socflow/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch
// and spatial dimensions, with learnable scale (gamma) and shift (beta)
// and running statistics for evaluation mode. ResNet and MobileNet both
// depend on it.
type BatchNorm2D struct {
	C        int
	Momentum float32
	Eps      float32

	Gamma *Param
	Beta  *Param

	// Running statistics used in eval mode. They are part of the model
	// state that SoCFlow synchronizes across SoCs alongside weights.
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// Caches for backward. A fused Conv+BN block's eval forward skips
	// xhat and invStd and sets eval (fused.go).
	xhat   *tensor.Tensor
	invStd []float32
	shape  []int
	eval   bool

	out, dx *tensor.Tensor // persistent buffers
}

// NewBatchNorm2D creates a batch-norm layer for c channels.
func NewBatchNorm2D(c int) *BatchNorm2D {
	return &BatchNorm2D{
		C:           c,
		Momentum:    0.1,
		Eps:         1e-5,
		Gamma:       newParam("bn.gamma", tensor.Ones(c), true),
		Beta:        newParam("bn.beta", tensor.New(c), true),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
	}
}

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkDims("BatchNorm2D", x, 4)
	c := x.Shape[1]
	b.shape = append(b.shape[:0], x.Shape...)
	b.out = ensureBuf(b.out, x.Shape...)
	if cap(b.invStd) < c {
		b.invStd = make([]float32, c)
	}
	b.invStd = b.invStd[:c]
	b.xhat = ensureBuf(b.xhat, x.Shape...)
	b.eval = false
	// Channels normalize independently, each over its planes in
	// ascending image order.
	n, hw := x.Shape[0], x.Shape[2]*x.Shape[3]
	xd, xhat, out := x.Data, b.xhat.Data, b.out.Data
	cnt := float32(n * hw)
	for ch := 0; ch < c; ch++ {
		var mean, variance float32
		if train {
			var s float64
			for img := 0; img < n; img++ {
				for _, v := range xd[(img*c+ch)*hw : (img*c+ch+1)*hw] {
					s += float64(v)
				}
			}
			mean = float32(s) / cnt
			var sq float64
			for img := 0; img < n; img++ {
				for _, v := range xd[(img*c+ch)*hw : (img*c+ch+1)*hw] {
					d := v - mean
					sq += float64(d) * float64(d)
				}
			}
			variance = float32(sq) / cnt
			b.RunningMean.Data[ch] = (1-b.Momentum)*b.RunningMean.Data[ch] + b.Momentum*mean
			b.RunningVar.Data[ch] = (1-b.Momentum)*b.RunningVar.Data[ch] + b.Momentum*variance
		} else {
			mean = b.RunningMean.Data[ch]
			variance = b.RunningVar.Data[ch]
		}
		inv := float32(1 / math.Sqrt(float64(variance)+float64(b.Eps)))
		b.invStd[ch] = inv
		g, bt := b.Gamma.W.Data[ch], b.Beta.W.Data[ch]
		for img := 0; img < n; img++ {
			off := (img*c + ch) * hw
			for i := 0; i < hw; i++ {
				xh := (xd[off+i] - mean) * inv
				xhat[off+i] = xh
				out[off+i] = g*xh + bt
			}
		}
	}
	return b.out
}

// Backward implements Layer. Standard batch-norm gradient:
//
//	dxhat = dy * gamma
//	dx = invStd/m * (m*dxhat - Σdxhat - xhat*Σ(dxhat*xhat))
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	mustFollowTrain("BatchNorm2D", b.eval)
	b.dx = ensureBuf(b.dx, b.shape...)
	n, c, hw := b.shape[0], b.shape[1], b.shape[2]*b.shape[3]
	gd, xhat, dx := grad.Data, b.xhat.Data, b.dx.Data
	m := float32(n * hw)
	for ch := 0; ch < c; ch++ {
		g := b.Gamma.W.Data[ch]
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			off := (img*c + ch) * hw
			for i := 0; i < hw; i++ {
				dy := gd[off+i]
				sumDy += float64(dy)
				sumDyXhat += float64(dy) * float64(xhat[off+i])
			}
		}
		b.Beta.Grad.Data[ch] += float32(sumDy)
		b.Gamma.Grad.Data[ch] += float32(sumDyXhat)
		inv := b.invStd[ch]
		k1 := float32(sumDy) / m
		k2 := float32(sumDyXhat) / m
		for img := 0; img < n; img++ {
			off := (img*c + ch) * hw
			for i := 0; i < hw; i++ {
				dxhat := gd[off+i] * g
				dx[off+i] = inv * (dxhat - g*k1 - xhat[off+i]*g*k2)
			}
		}
	}
	return b.dx
}

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// State returns the non-trainable state tensors (running statistics)
// that must travel with the weights during cross-SoC synchronization.
func (b *BatchNorm2D) State() []*tensor.Tensor {
	return []*tensor.Tensor{b.RunningMean, b.RunningVar}
}
