package nn

import "socflow/internal/tensor"

// Dense is a fully connected layer: y = xW + b with x[N,in], W[in,out].
type Dense struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	x *tensor.Tensor // cached input for backward

	// Persistent buffers, sized on first batch and reused by capacity.
	y, dx        *tensor.Tensor
	dwScr, dbScr *tensor.Tensor

	kc kernelCounter
}

// NewDense creates a dense layer with He initialization (suited to the
// ReLU networks used throughout the paper); zero weights when r is nil.
func NewDense(r *tensor.RNG, in, out int) *Dense {
	return &Dense{
		In:     in,
		Out:    out,
		Weight: newParam("dense.w", heWeight(r, in, in, out), false),
		Bias:   newParam("dense.b", tensor.New(out), true),
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkDims("Dense", x, 2)
	d.kc.DenseForward++
	d.x = x
	d.y = ensureBuf(d.y, x.Shape[0], d.Out)
	t0 := d.kc.beginGEMM(x.Shape[0], d.In, d.Out)
	tensor.MatMulBiasInto(d.y, x, d.Weight.W, d.Bias.W)
	d.kc.endGEMM(t0)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkDims("Dense", grad, 2)
	d.kc.DenseBackward++
	n := grad.Shape[0]
	// dW = xᵀ · grad ; db = Σ_rows grad ; dx = grad · Wᵀ
	// Gradients go through scratch then AddInPlace so the accumulation
	// rounding order matches the allocating path exactly.
	d.dwScr = ensureBuf(d.dwScr, d.Weight.W.Shape...)
	t0 := d.kc.beginGEMM(d.In, n, d.Out)
	tensor.MatMulT1Into(d.dwScr, d.x, grad)
	d.kc.endGEMM(t0)
	tensor.AddInPlace(d.Weight.Grad, d.dwScr)
	d.dbScr = ensureBuf(d.dbScr, d.Out)
	tensor.SumRowsInto(d.dbScr, grad)
	tensor.AddInPlace(d.Bias.Grad, d.dbScr)
	d.dx = ensureBuf(d.dx, n, d.In)
	t0 = d.kc.beginGEMM(n, d.Out, d.In)
	tensor.MatMulT2Into(d.dx, grad, d.Weight.W)
	d.kc.endGEMM(t0)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }
