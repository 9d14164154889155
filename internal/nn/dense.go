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
}

// NewDense creates a dense layer with He initialization (suited to the
// ReLU networks used throughout the paper).
func NewDense(r *tensor.RNG, in, out int) *Dense {
	return &Dense{
		In:     in,
		Out:    out,
		Weight: newParam("dense.w", tensor.HeInit(r, in, in, out), false),
		Bias:   newParam("dense.b", tensor.New(out), true),
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkDims("Dense", x, 2)
	lstatDenseFwd.Add(1)
	d.x = x
	d.y = ensureBuf(d.y, x.Shape[0], d.Out)
	tensor.MatMulBiasInto(d.y, x, d.Weight.W, d.Bias.W)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkDims("Dense", grad, 2)
	lstatDenseBwd.Add(1)
	// dW = xᵀ · grad ; db = Σ_rows grad ; dx = grad · Wᵀ
	// Gradients go through scratch then AddInPlace so the accumulation
	// rounding order matches the allocating path exactly.
	d.dwScr = ensureBuf(d.dwScr, d.Weight.W.Shape...)
	tensor.MatMulT1Into(d.dwScr, d.x, grad)
	tensor.AddInPlace(d.Weight.Grad, d.dwScr)
	d.dbScr = ensureBuf(d.dbScr, d.Out)
	tensor.SumRowsInto(d.dbScr, grad)
	tensor.AddInPlace(d.Bias.Grad, d.dbScr)
	d.dx = ensureBuf(d.dx, grad.Shape[0], d.In)
	tensor.MatMulT2Into(d.dx, grad, d.Weight.W)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }
