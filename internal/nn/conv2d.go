package nn

import (
	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW input, lowered to
// matrix multiplication via im2col exactly as the paper's MNN backend
// lowers mobile convolutions.
type Conv2D struct {
	InC, OutC int
	P         tensor.ConvParams
	Weight    *Param // [OutC, InC*KH*KW]
	Bias      *Param // [OutC]

	inShape []int
	cols    *tensor.Tensor // cached im2col matrix
	oh, ow  int

	// Persistent buffers, sized on first batch and reused by capacity.
	y, out        *tensor.Tensor // forward: pre-transpose rows, NCHW output
	g2, dcols, dx *tensor.Tensor // backward: NHWC grad, column grad, input grad
	dwScr, dbScr  *tensor.Tensor // weight/bias gradient scratch

	grad []float32 // output gradient of the backward pass in flight
}

// NewConv2D creates a conv layer with a square kernel, He init.
func NewConv2D(r *tensor.RNG, inC, outC, k, stride, pad int) *Conv2D {
	fanIn := inC * k * k
	return &Conv2D{
		InC:  inC,
		OutC: outC,
		P:    tensor.ConvParams{KH: k, KW: k, SH: stride, SW: stride, PH: pad, PW: pad},
		Weight: newParam("conv.w",
			tensor.HeInit(r, fanIn, outC, fanIn), false),
		Bias: newParam("conv.b", tensor.New(outC), true),
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkDims("Conv2D", x, 4)
	lstatConvFwd.Add(1)
	n := x.Shape[0]
	c.inShape = append(c.inShape[:0], x.Shape...)
	c.oh, c.ow = c.P.OutSize(x.Shape[2], x.Shape[3])
	c.cols = ensureBuf(c.cols, n*c.oh*c.ow, c.InC*c.P.KH*c.P.KW)
	tensor.Im2ColInto(c.cols, x, c.P) // [N*OH*OW, InC*K*K]
	// y = cols · Wᵀ  -> [N*OH*OW, OutC]
	c.y = ensureBuf(c.y, n*c.oh*c.ow, c.OutC)
	tensor.MatMulT2BiasInto(c.y, c.cols, c.Weight.W, c.Bias.W)
	// Rearrange [N, OH, OW, OutC] -> [N, OutC, OH, OW].
	return c.toNCHW()
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkDims("Conv2D", grad, 4)
	lstatConvBwd.Add(1)
	n := grad.Shape[0]
	// Back to [N*OH*OW, OutC] layout to mirror the forward pass.
	c.g2 = ensureBuf(c.g2, n*c.oh*c.ow, c.OutC)
	c.grad = grad.Data
	parallel.ForKernel(n, (*convToNHWC)(c))
	// dW = g2ᵀ · cols ; db = Σ_rows g2 ; dcols = g2 · W
	// Gradients go through scratch then AddInPlace so the accumulation
	// rounding order matches the allocating path exactly.
	c.dwScr = ensureBuf(c.dwScr, c.Weight.W.Shape...)
	tensor.MatMulT1Into(c.dwScr, c.g2, c.cols)
	tensor.AddInPlace(c.Weight.Grad, c.dwScr)
	c.dbScr = ensureBuf(c.dbScr, c.OutC)
	tensor.SumRowsInto(c.dbScr, c.g2)
	tensor.AddInPlace(c.Bias.Grad, c.dbScr)
	c.dcols = ensureBuf(c.dcols, n*c.oh*c.ow, c.InC*c.P.KH*c.P.KW)
	tensor.MatMulInto(c.dcols, c.g2, c.Weight.W)
	c.dx = ensureBuf(c.dx, c.inShape...)
	tensor.Col2ImInto(c.dx, c.dcols, c.P)
	return c.dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// toNCHW rearranges the GEMM output y [N*OH*OW, OutC] into the layer's
// NCHW output buffer. Images transpose independently into disjoint
// output blocks.
func (c *Conv2D) toNCHW() *tensor.Tensor {
	n := c.inShape[0]
	c.out = ensureBuf(c.out, n, c.OutC, c.oh, c.ow)
	parallel.ForKernel(n, (*convToNCHW)(c))
	return c.out
}

type convToNCHW Conv2D

func (c *convToNCHW) RunRange(lo, hi int) {
	out, y, hw, ch := c.out.Data, c.y.Data, c.oh*c.ow, c.OutC
	for img := lo; img < hi; img++ {
		for pos := 0; pos < hw; pos++ {
			row := y[(img*hw+pos)*ch : (img*hw+pos+1)*ch]
			for cc, v := range row {
				out[(img*ch+cc)*hw+pos] = v
			}
		}
	}
}

// convToNHWC is the reverse: the NCHW output gradient of images
// [lo, hi) into the [N*OH*OW, OutC] row matrix g2.
type convToNHWC Conv2D

func (c *convToNHWC) RunRange(lo, hi int) {
	out, x, hw, ch := c.g2.Data, c.grad, c.oh*c.ow, c.OutC
	for img := lo; img < hi; img++ {
		for cc := 0; cc < ch; cc++ {
			plane := x[(img*ch+cc)*hw : (img*ch+cc+1)*hw]
			for pos, v := range plane {
				out[(img*hw+pos)*ch+cc] = v
			}
		}
	}
}

// DepthwiseConv2D applies one kxk filter per input channel (groups ==
// channels), the building block of MobileNet-V1.
type DepthwiseConv2D struct {
	C      int
	P      tensor.ConvParams
	Weight *Param // [C, K*K]
	Bias   *Param // [C]

	inShape []int
	x       *tensor.Tensor
	oh, ow  int
	out, dx *tensor.Tensor // persistent buffers
	grad    []float32      // output gradient of the backward pass in flight
}

// NewDepthwiseConv2D creates a depthwise conv layer.
func NewDepthwiseConv2D(r *tensor.RNG, c, k, stride, pad int) *DepthwiseConv2D {
	return &DepthwiseConv2D{
		C:      c,
		P:      tensor.ConvParams{KH: k, KW: k, SH: stride, SW: stride, PH: pad, PW: pad},
		Weight: newParam("dwconv.w", tensor.HeInit(r, k*k, c, k*k), false),
		Bias:   newParam("dwconv.b", tensor.New(c), true),
	}
}

// Forward implements Layer.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkDims("DepthwiseConv2D", x, 4)
	d.x = x
	d.inShape = append(d.inShape[:0], x.Shape...)
	d.oh, d.ow = d.P.OutSize(x.Shape[2], x.Shape[3])
	d.out = ensureBuf(d.out, x.Shape[0], x.Shape[1], d.oh, d.ow)
	parallel.ForKernel(x.Shape[0], (*dwForward)(d))
	return d.out
}

type dwForward DepthwiseConv2D

// RunRange convolves images [lo, hi).
func (d *dwForward) RunRange(lo, hi int) {
	c, h, w := d.inShape[1], d.inShape[2], d.inShape[3]
	x, out := d.x, d.out
	k2 := d.P.KH * d.P.KW
	for img := lo; img < hi; img++ {
		oi := img * c * d.oh * d.ow
		for ch := 0; ch < c; ch++ {
			cbase := (img*c + ch) * h * w
			kw := d.Weight.W.Data[ch*k2 : (ch+1)*k2]
			b := d.Bias.W.Data[ch]
			for oy := 0; oy < d.oh; oy++ {
				for ox := 0; ox < d.ow; ox++ {
					s := b
					ki := 0
					for ky := 0; ky < d.P.KH; ky++ {
						iy := oy*d.P.SH - d.P.PH + ky
						for kx := 0; kx < d.P.KW; kx++ {
							ix := ox*d.P.SW - d.P.PW + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								s += kw[ki] * x.Data[cbase+iy*w+ix]
							}
							ki++
						}
					}
					out.Data[oi] = s
					oi++
				}
			}
		}
	}
}

// Backward implements Layer.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.dx = ensureBuf(d.dx, d.inShape...)
	d.dx.Zero() // the scatter below accumulates
	d.grad = grad.Data
	parallel.ForKernel(d.inShape[1], (*dwBackward)(d))
	return d.dx
}

type dwBackward DepthwiseConv2D

// RunRange back-propagates channels [lo, hi). Channel-outer so each
// task owns its filter gradient gw, bias gradient cell, and every
// image's dx plane for that channel. The per-weight accumulation order
// (ascending image, then window position) matches the sequential
// image-outer loop exactly.
func (d *dwBackward) RunRange(lo, hi int) {
	n, c, h, w := d.inShape[0], d.inShape[1], d.inShape[2], d.inShape[3]
	grad, dx := d.grad, d.dx
	k2 := d.P.KH * d.P.KW
	for ch := lo; ch < hi; ch++ {
		kw := d.Weight.W.Data[ch*k2 : (ch+1)*k2]
		gw := d.Weight.Grad.Data[ch*k2 : (ch+1)*k2]
		for img := 0; img < n; img++ {
			cbase := (img*c + ch) * h * w
			gi := (img*c + ch) * d.oh * d.ow
			for oy := 0; oy < d.oh; oy++ {
				for ox := 0; ox < d.ow; ox++ {
					g := grad[gi]
					gi++
					d.Bias.Grad.Data[ch] += g
					ki := 0
					for ky := 0; ky < d.P.KH; ky++ {
						iy := oy*d.P.SH - d.P.PH + ky
						for kx := 0; kx < d.P.KW; kx++ {
							ix := ox*d.P.SW - d.P.PW + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								gw[ki] += g * d.x.Data[cbase+iy*w+ix]
								dx.Data[cbase+iy*w+ix] += g * kw[ki]
							}
							ki++
						}
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.Weight, d.Bias} }
