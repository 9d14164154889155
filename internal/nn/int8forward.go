package nn

import (
	"socflow/internal/quant"
	"socflow/internal/tensor"
)

// True-INT8 forward hooks. The mixed-precision NPU datapath historically
// *simulated* integer execution: weights and activations were rounded
// onto their INT8 grids but the GEMMs still ran in float32. ForwardVia
// runs the real thing — int8 codes multiplied through a pluggable
// Multiplier into int32 accumulators, one rescale per output element —
// so approximate-multiplier accelerators can be modeled faithfully.
//
// Backward is untouched: both hooks populate exactly the caches the
// float Backward reads (cols / x in float32), so gradients pass
// straight through the integer forward — the straight-through estimator
// integer-training schemes use.

// ForwardVia runs the conv forward on the INT8 datapath: im2col as
// usual, activations quantized per-tensor, weights per output channel,
// then an int8×int8→int32 GEMM through mul with the bias added after
// the single rescale.
func (c *Conv2D) ForwardVia(x *tensor.Tensor, mul quant.Multiplier) *tensor.Tensor {
	checkDims("Conv2D", x, 4)
	lstatConvFwd.Add(1)
	n := x.Shape[0]
	c.inShape = append(c.inShape[:0], x.Shape...)
	c.oh, c.ow = c.P.OutSize(x.Shape[2], x.Shape[3])
	c.cols = ensureBuf(c.cols, n*c.oh*c.ow, c.InC*c.P.KH*c.P.KW)
	tensor.Im2ColInto(c.cols, x, c.P)

	c.qcols = ensureCodes(c.qcols, len(c.cols.Data))
	sa := quant.QuantizeSlice(c.qcols, c.cols.Data)
	c.qw = ensureCodes(c.qw, len(c.Weight.W.Data))
	c.wScales = ensureScales(c.wScales, c.OutC)
	quant.QuantizeRows(c.qw, c.wScales, c.Weight.W.Data, c.OutC)

	c.y = ensureBuf(c.y, n*c.oh*c.ow, c.OutC)
	k := c.InC * c.P.KH * c.P.KW
	quant.Int8MatMulT2(c.y.Data, c.qcols, sa, c.qw, c.wScales, c.Bias.W.Data,
		n*c.oh*c.ow, k, c.OutC, mul)

	return c.toNCHW()
}

// ForwardVia runs the dense forward on the INT8 datapath with
// per-tensor scales on both operands (output columns cross every
// axis-0 weight channel, so only a per-tensor weight scale factors out
// of the integer sum).
func (d *Dense) ForwardVia(x *tensor.Tensor, mul quant.Multiplier) *tensor.Tensor {
	checkDims("Dense", x, 2)
	lstatDenseFwd.Add(1)
	d.x = x
	d.qx = ensureCodes(d.qx, len(x.Data))
	sa := quant.QuantizeSlice(d.qx, x.Data)
	d.qw = ensureCodes(d.qw, len(d.Weight.W.Data))
	sw := quant.QuantizeSlice(d.qw, d.Weight.W.Data)
	d.y = ensureBuf(d.y, x.Shape[0], d.Out)
	quant.Int8MatMul(d.y.Data, d.qx, sa, d.qw, sw, d.Bias.W.Data,
		x.Shape[0], d.In, d.Out, mul)
	return d.y
}

func ensureCodes(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}

func ensureScales(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}
