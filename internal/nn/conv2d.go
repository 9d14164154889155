package nn

import (
	"bytes"
	"unsafe"

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

	// Weightᵀ for eval forwards and wSrc, the copy of Weight's bits it
	// was taken from: one backing slice, allocated on the first eval
	// forward (see weightT).
	wT   *tensor.Tensor
	wSrc []float32

	kc kernelCounter
}

// NewConv2D creates a conv layer with a square kernel, He init (zero
// weights when r is nil).
func NewConv2D(r *tensor.RNG, inC, outC, k, stride, pad int) *Conv2D {
	fanIn := inC * k * k
	return &Conv2D{
		InC:  inC,
		OutC: outC,
		P:    tensor.ConvParams{KH: k, KW: k, SH: stride, SW: stride, PH: pad, PW: pad},
		Weight: newParam("conv.w",
			heWeight(r, fanIn, outC, fanIn), false),
		Bias: newParam("conv.b", tensor.New(outC), true),
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c.gemmForward(x, train)
	// Rearrange [N, OH, OW, OutC] -> [N, OutC, OH, OW].
	n, hw, ch := x.Shape[0], c.oh*c.ow, c.OutC
	c.out = ensureBuf(c.out, n, ch, c.oh, c.ow)
	out, y := c.out.Data, c.y.Data
	for img := 0; img < n; img++ {
		for pos := 0; pos < hw; pos++ {
			row := y[(img*hw+pos)*ch : (img*hw+pos+1)*ch]
			for cc, v := range row {
				out[(img*ch+cc)*hw+pos] = v
			}
		}
	}
	return c.out
}

// gemmForward lowers x with im2col and runs the GEMM, leaving the
// NHWC row matrix y = cols · Wᵀ + bias, [N*OH*OW, OutC], in c.y. The
// fused blocks share it. A training forward transposes W per call,
// since every step changes it; an eval forward multiplies by the cached
// Wᵀ, the same kernel call on the same bits.
func (c *Conv2D) gemmForward(x *tensor.Tensor, train bool) {
	checkDims("Conv2D", x, 4)
	c.kc.ConvForward++
	c.kc.Im2ColOps++
	n := x.Shape[0]
	c.inShape = append(c.inShape[:0], x.Shape...)
	c.oh, c.ow = c.P.OutSize(x.Shape[2], x.Shape[3])
	rows, k := n*c.oh*c.ow, c.InC*c.P.KH*c.P.KW
	c.cols = ensureBuf(c.cols, rows, k)
	tensor.Im2ColInto(c.cols, x, c.P)
	c.y = ensureBuf(c.y, rows, c.OutC)
	t0 := c.kc.beginGEMM(rows, k, c.OutC)
	if train {
		tensor.MatMulT2BiasInto(c.y, c.cols, c.Weight.W, c.Bias.W)
	} else {
		tensor.MatMulBiasInto(c.y, c.cols, c.weightT(), c.Bias.W)
	}
	c.kc.endGEMM(t0)
}

// weightT returns Weightᵀ, [InC·KH·KW, OutC], re-transposing only when
// Weight's bits differ from wSrc, the copy the cache was taken from.
// The check is one memequal per eval forward. A version counter would
// be cheaper, but weights are written in place at many sites in
// several packages (optimizer steps, INT8 SGD, replica and pipeline
// syncs, collective averaging, checkpoint and elastic restores,
// Sequential weight copies), and one missed bump would silently serve
// stale weights (DESIGN.md §14).
func (c *Conv2D) weightT() *tensor.Tensor {
	w := c.Weight.W
	if size := w.Size(); len(c.wSrc) != size {
		buf := make([]float32, 2*size)
		c.wT = tensor.FromSlice(buf[:size], w.Shape[1], w.Shape[0])
		c.wSrc = buf[size:] // zeros, and so is wT: the pair starts consistent
	}
	if !bitsEqual(c.wSrc, w.Data) {
		copy(c.wSrc, w.Data)
		tensor.Transpose2DInto(c.wT, w)
	}
	return c.wT
}

// bitsEqual reports whether a and b hold the same bit patterns (not
// float equality: −0 ≠ +0 and a NaN equals its own bits), compared as
// bytes in one memequal.
func bitsEqual(a, b []float32) bool {
	return bytes.Equal(asBytes(a), asBytes(b))
}

// asBytes views a float32 slice's memory as bytes.
func asBytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkDims("Conv2D", grad, 4)
	c.kc.ConvBackward++
	n, hw, ch := grad.Shape[0], c.oh*c.ow, c.OutC
	rows, k := n*hw, c.InC*c.P.KH*c.P.KW
	// Back to the [N*OH*OW, OutC] row layout of the forward pass.
	c.g2 = ensureBuf(c.g2, rows, ch)
	g2 := c.g2.Data
	for img := 0; img < n; img++ {
		for cc := 0; cc < ch; cc++ {
			plane := grad.Data[(img*ch+cc)*hw : (img*ch+cc+1)*hw]
			for pos, v := range plane {
				g2[(img*hw+pos)*ch+cc] = v
			}
		}
	}
	// dW = g2ᵀ · cols ; db = Σ_rows g2 ; dcols = g2 · W
	// Gradients go through scratch then AddInPlace so the accumulation
	// rounding order matches the allocating path exactly.
	c.dwScr = ensureBuf(c.dwScr, c.Weight.W.Shape...)
	t0 := c.kc.beginGEMM(ch, rows, k)
	tensor.MatMulT1Into(c.dwScr, c.g2, c.cols)
	c.kc.endGEMM(t0)
	tensor.AddInPlace(c.Weight.Grad, c.dwScr)
	c.dbScr = ensureBuf(c.dbScr, ch)
	tensor.SumRowsInto(c.dbScr, c.g2)
	tensor.AddInPlace(c.Bias.Grad, c.dbScr)
	c.dcols = ensureBuf(c.dcols, rows, k)
	t0 = c.kc.beginGEMM(rows, ch, k)
	tensor.MatMulInto(c.dcols, c.g2, c.Weight.W)
	c.kc.endGEMM(t0)
	c.dx = ensureBuf(c.dx, c.inShape...)
	tensor.Col2ImInto(c.dx, c.dcols, c.P)
	return c.dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

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
}

// NewDepthwiseConv2D creates a depthwise conv layer.
func NewDepthwiseConv2D(r *tensor.RNG, c, k, stride, pad int) *DepthwiseConv2D {
	return &DepthwiseConv2D{
		C:      c,
		P:      tensor.ConvParams{KH: k, KW: k, SH: stride, SW: stride, PH: pad, PW: pad},
		Weight: newParam("dwconv.w", heWeight(r, k*k, c, k*k), false),
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
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	out := d.out.Data
	k2 := d.P.KH * d.P.KW
	oi := 0
	for img := 0; img < x.Shape[0]; img++ {
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
					out[oi] = s
					oi++
				}
			}
		}
	}
	return d.out
}

// Backward implements Layer.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.dx = ensureBuf(d.dx, d.inShape...)
	d.dx.Zero() // the scatter below accumulates
	n, c, h, w := d.inShape[0], d.inShape[1], d.inShape[2], d.inShape[3]
	dx := d.dx.Data
	k2 := d.P.KH * d.P.KW
	// Channel-outer: each weight accumulates in ascending image, then
	// window-position order.
	for ch := 0; ch < c; ch++ {
		kw := d.Weight.W.Data[ch*k2 : (ch+1)*k2]
		gw := d.Weight.Grad.Data[ch*k2 : (ch+1)*k2]
		for img := 0; img < n; img++ {
			cbase := (img*c + ch) * h * w
			gi := (img*c + ch) * d.oh * d.ow
			for oy := 0; oy < d.oh; oy++ {
				for ox := 0; ox < d.ow; ox++ {
					g := grad.Data[gi]
					gi++
					d.Bias.Grad.Data[ch] += g
					ki := 0
					for ky := 0; ky < d.P.KH; ky++ {
						iy := oy*d.P.SH - d.P.PH + ky
						for kx := 0; kx < d.P.KW; kx++ {
							ix := ox*d.P.SW - d.P.PW + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								gw[ki] += g * d.x.Data[cbase+iy*w+ix]
								dx[cbase+iy*w+ix] += g * kw[ki]
							}
							ki++
						}
					}
				}
			}
		}
	}
	return d.dx
}

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.Weight, d.Bias} }
