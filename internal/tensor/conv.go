package tensor

import (
	"fmt"
	"sync"

	"socflow/internal/parallel"
)

// ConvParams describes a 2-D convolution or pooling window. Tensors use
// NCHW layout throughout the repository.
type ConvParams struct {
	KH, KW int // kernel height/width
	SH, SW int // stride
	PH, PW int // zero padding (symmetric)
}

// OutSize returns the output spatial size for an input of h x w.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*p.PH-p.KH)/p.SH + 1
	ow = (w+2*p.PW-p.KW)/p.SW + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("tensor: conv window %+v does not fit input %dx%d", p, h, w))
	}
	return oh, ow
}

// imageTask carries the operands of one per-image kernel (unfold, fold,
// pool) through parallel.ForKernel. Every image reads and writes its
// own block of src and dst, so images run independently and the result
// is bit-identical at every parallelism level. Tasks are pooled like
// gemmTask.
type imageTask struct {
	op                    int // opIm2Col ... opAvgPoolBackward
	dst, src              []float32
	arg                   []int   // max-pool argmax positions
	inv                   float32 // avg-pool 1/window
	c, h, w, oh, ow, colW int
	p                     ConvParams
}

const (
	opIm2Col = iota
	opCol2Im
	opMaxPool
	opMaxPoolBackward
	opAvgPool
	opAvgPoolBackward
)

// RunRange implements parallel.Kernel over images [lo, hi).
func (t *imageTask) RunRange(lo, hi int) {
	for img := lo; img < hi; img++ {
		switch t.op {
		case opIm2Col:
			im2colImage(t.dst, t.src, t.colW, t.c, t.h, t.w, t.oh, t.ow, t.p, img)
		case opCol2Im:
			col2imImage(t.dst, t.src, t.colW, t.c, t.h, t.w, t.oh, t.ow, t.p, img)
		case opMaxPool:
			maxPoolImage(t.dst, t.arg, t.src, t.c, t.h, t.w, t.oh, t.ow, t.p, img)
		case opMaxPoolBackward:
			maxPoolBackwardImage(t.dst, t.src, t.arg, t.c*t.oh*t.ow, t.c*t.h*t.w, img)
		case opAvgPool:
			avgPoolImage(t.dst, t.src, t.inv, t.c, t.h, t.w, t.oh, t.ow, t.p, img)
		case opAvgPoolBackward:
			avgPoolBackwardImage(t.dst, t.src, t.inv, t.c, t.h, t.w, t.oh, t.ow, t.p, img)
		}
	}
}

var imageTaskPool = sync.Pool{New: func() any { return new(imageTask) }}

// runImages fans t out over n images through the persistent worker
// pool, recycling the task struct afterwards.
func runImages(n int, t imageTask) {
	pt := imageTaskPool.Get().(*imageTask)
	*pt = t
	parallel.ForKernel(n, pt)
	*pt = imageTask{}
	imageTaskPool.Put(pt)
}

// Im2Col unfolds input x[N,C,H,W] into a matrix [N*OH*OW, C*KH*KW] so a
// convolution becomes a single MatMul against the reshaped kernel. This
// is the same lowering MNN (the paper's CPU backend) uses for mobile
// convolutions.
func Im2Col(x *Tensor, p ConvParams) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col of %v (want NCHW)", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	cols := New(n*oh*ow, c*p.KH*p.KW)
	Im2ColInto(cols, x, p)
	return cols
}

// Im2ColInto unfolds x into an existing column matrix of shape
// [N*OH*OW, C*KH*KW], overwriting every element.
func Im2ColInto(cols, x *Tensor, p ConvParams) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Im2ColInto of %v (want NCHW)", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	if cols.Dims() != 2 || cols.Shape[0] != n*oh*ow || cols.Shape[1] != c*p.KH*p.KW {
		panic(fmt.Sprintf("tensor: Im2ColInto cols %v, want [%d %d]", cols.Shape, n*oh*ow, c*p.KH*p.KW))
	}
	kstatIm2ColOps.Add(1)
	// Each image owns rows [img*oh*ow, (img+1)*oh*ow) of the column
	// matrix, so images unfold independently.
	runImages(n, imageTask{op: opIm2Col, dst: cols.Data, src: x.Data,
		colW: cols.Shape[1], c: c, h: h, w: w, oh: oh, ow: ow, p: p})
}

// im2colImage unfolds one image's windows into its rows of the column
// matrix. The kx run of a window row is contiguous in the source image
// (ix = ox*SW-PW+kx), so each (ch, ky) strip is one bulk copy with the
// out-of-bounds edges zero-filled — pure data movement, bit-identical
// to the per-element form.
func im2colImage(cols, x []float32, colW, c, h, w, oh, ow int, p ConvParams, img int) {
	base := img * c * h * w
	row := img * oh * ow
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			dst := cols[row*colW : (row+1)*colW]
			ix0 := ox*p.SW - p.PW
			// Clip the kx range to the image: valid kx satisfy
			// 0 <= ix0+kx < w.
			k0, k1 := 0, p.KW
			if ix0 < 0 {
				k0 = -ix0
			}
			if ix0+k1 > w {
				k1 = w - ix0
			}
			if k1 < k0 {
				k1 = k0
			}
			di := 0
			for ch := 0; ch < c; ch++ {
				cbase := base + ch*h*w
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.SH - p.PH + ky
					if iy < 0 || iy >= h {
						for i := di; i < di+p.KW; i++ {
							dst[i] = 0
						}
						di += p.KW
						continue
					}
					for i := di; i < di+k0; i++ {
						dst[i] = 0
					}
					// Runs are at most KW (3 or 5 in the model zoo)
					// elements: an indexed loop beats memmove call
					// overhead at that length.
					sb := cbase + iy*w + ix0
					for kx := k0; kx < k1; kx++ {
						dst[di+kx] = x[sb+kx]
					}
					for i := di + k1; i < di+p.KW; i++ {
						dst[i] = 0
					}
					di += p.KW
				}
			}
			row++
		}
	}
}

// Col2Im folds a column matrix (as produced by Im2Col) back into an
// NCHW image, accumulating overlapping contributions. It is the adjoint
// of Im2Col and is used for the convolution input gradient.
func Col2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	img := New(n, c, h, w)
	Col2ImInto(img, cols, p)
	return img
}

// Col2ImInto folds cols into an existing NCHW tensor, overwriting its
// contents (the accumulation of overlapping window contributions starts
// from zero, not from img's prior values).
func Col2ImInto(img, cols *Tensor, p ConvParams) {
	if img.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Col2ImInto into %v (want NCHW)", img.Shape))
	}
	n, c, h, w := img.Shape[0], img.Shape[1], img.Shape[2], img.Shape[3]
	oh, ow := p.OutSize(h, w)
	if cols.Shape[0] != n*oh*ow || cols.Shape[1] != c*p.KH*p.KW {
		panic(fmt.Sprintf("tensor: Col2ImInto shape %v inconsistent with %dx%dx%dx%d %+v", cols.Shape, n, c, h, w, p))
	}
	// All of image in's accumulations land in its own c*h*w block and
	// keep their serial (oy, ox, ch, ky, kx) order, so folding images in
	// parallel is race-free and bit-identical.
	runImages(n, imageTask{op: opCol2Im, dst: img.Data, src: cols.Data,
		colW: cols.Shape[1], c: c, h: h, w: w, oh: oh, ow: ow, p: p})
}

// col2imImage folds one image's column rows back into its NCHW block,
// zeroing the block first.
func col2imImage(img, cols []float32, colW, c, h, w, oh, ow int, p ConvParams, in int) {
	per := c * h * w
	base := in * per
	blk := img[base : base+per]
	for i := range blk {
		blk[i] = 0
	}
	row := in * oh * ow
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			src := cols[row*colW : (row+1)*colW]
			// The kx run is contiguous in the image (ix = ix0+kx), so
			// clip it once and accumulate without per-element bounds
			// checks. Each image cell still receives its contributions
			// in the original (oy, ox, ch, ky, kx) order, so the
			// accumulated float result is bit-identical.
			ix0 := ox*p.SW - p.PW
			k0, k1 := 0, p.KW
			if ix0 < 0 {
				k0 = -ix0
			}
			if ix0+k1 > w {
				k1 = w - ix0
			}
			if k1 < k0 {
				k1 = k0
			}
			si := 0
			for ch := 0; ch < c; ch++ {
				cbase := base + ch*h*w
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.SH - p.PH + ky
					if iy >= 0 && iy < h {
						dst := img[cbase+iy*w+ix0+k0 : cbase+iy*w+ix0+k1]
						s := src[si+k0 : si+k1]
						for i, v := range s {
							dst[i] += v
						}
					}
					si += p.KW
				}
			}
			row++
		}
	}
}

// MaxPool applies max pooling to x[N,C,H,W] and returns the pooled
// tensor plus the flat argmax indices needed by the backward pass.
func MaxPool(x *Tensor, p ConvParams) (*Tensor, []int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	out := New(n, c, oh, ow)
	arg := make([]int, out.Size())
	MaxPoolInto(out, arg, x, p)
	return out, arg
}

// MaxPoolInto applies max pooling into an existing output tensor and
// argmax slice (len(arg) == out.Size()), overwriting both.
func MaxPoolInto(out *Tensor, arg []int, x *Tensor, p ConvParams) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	if out.Size() != n*c*oh*ow || len(arg) != out.Size() {
		panic(fmt.Sprintf("tensor: MaxPoolInto out %v/arg %d, want %d elements", out.Shape, len(arg), n*c*oh*ow))
	}
	runImages(n, imageTask{op: opMaxPool, dst: out.Data, src: x.Data, arg: arg,
		c: c, h: h, w: w, oh: oh, ow: ow, p: p})
}

// maxPoolImage pools one image, recording argmax positions. Windows
// that sit fully inside the image (always, when padding is zero and the
// kernel fits) take a branch-light path seeded from the window's first
// element; it selects the same maximum and the same first-wins argmax
// as the general path, which handles clipped edge windows.
func maxPoolImage(out []float32, arg []int, x []float32, c, h, w, oh, ow int, p ConvParams, img int) {
	oi := img * c * oh * ow
	for ch := 0; ch < c; ch++ {
		cbase := (img*c + ch) * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*p.SH - p.PH
			rowInside := iy0 >= 0 && iy0+p.KH <= h
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*p.SW - p.PW
				if rowInside && ix0 >= 0 && ix0+p.KW <= w {
					wbase := cbase + iy0*w + ix0
					if p.KH == 2 && p.KW == 2 {
						// The 2x2 stride-2 window of every pooling
						// layer in the model zoo: four direct loads,
						// same first-wins scan order as the loop.
						best, bi := x[wbase], wbase
						if v := x[wbase+1]; v > best {
							best, bi = v, wbase+1
						}
						if v := x[wbase+w]; v > best {
							best, bi = v, wbase+w
						}
						if v := x[wbase+w+1]; v > best {
							best, bi = v, wbase+w+1
						}
						out[oi] = best
						arg[oi] = bi
						oi++
						continue
					}
					best, bi := x[wbase], wbase
					for ky := 0; ky < p.KH; ky++ {
						row := x[wbase+ky*w : wbase+ky*w+p.KW]
						for kx, v := range row {
							if v > best {
								best, bi = v, wbase+ky*w+kx
							}
						}
					}
					out[oi] = best
					arg[oi] = bi
					oi++
					continue
				}
				best := float32(0)
				bi := -1
				for ky := 0; ky < p.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						v := x[cbase+iy*w+ix]
						if bi < 0 || v > best {
							best, bi = v, cbase+iy*w+ix
						}
					}
				}
				out[oi] = best
				arg[oi] = bi
				oi++
			}
		}
	}
}

// MaxPoolBackward scatters the output gradient back to the argmax
// positions recorded by MaxPool.
func MaxPoolBackward(grad *Tensor, arg []int, inShape []int) *Tensor {
	dx := New(inShape...)
	MaxPoolBackwardInto(dx, grad, arg)
	return dx
}

// MaxPoolBackwardInto scatters the output gradient into an existing
// input-gradient tensor, overwriting its contents.
func MaxPoolBackwardInto(dx, grad *Tensor, arg []int) {
	n := grad.Shape[0]
	if n == 0 {
		dx.Zero()
		return
	}
	// Argmax positions recorded for image img always point inside that
	// image's own block of dx, so images scatter independently. Only the
	// per-image sizes matter here, so each image is described as one
	// flat channel: grad.Size()/n outputs scattered into dx.Size()/n
	// inputs.
	runImages(n, imageTask{op: opMaxPoolBackward, dst: dx.Data, src: grad.Data, arg: arg,
		c: 1, h: dx.Size() / n, w: 1, oh: grad.Size() / n, ow: 1})
}

// maxPoolBackwardImage zeroes one image's input-gradient block and
// scatters its output gradient to the recorded argmax positions.
func maxPoolBackwardImage(dx, grad []float32, arg []int, per, dper, img int) {
	blk := dx[img*dper : (img+1)*dper]
	for i := range blk {
		blk[i] = 0
	}
	for i := img * per; i < (img+1)*per; i++ {
		if arg[i] >= 0 {
			dx[arg[i]] += grad[i]
		}
	}
}

// AvgPool applies average pooling to x[N,C,H,W]. Out-of-bounds window
// cells count as zeros with the full window size as divisor, matching
// the conventional "count_include_pad" behaviour.
func AvgPool(x *Tensor, p ConvParams) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	out := New(n, c, oh, ow)
	AvgPoolInto(out, x, p)
	return out
}

// AvgPoolInto applies average pooling into an existing output tensor,
// overwriting its contents.
func AvgPoolInto(out, x *Tensor, p ConvParams) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	if out.Size() != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: AvgPoolInto out %v, want %d elements", out.Shape, n*c*oh*ow))
	}
	runImages(n, imageTask{op: opAvgPool, dst: out.Data, src: x.Data,
		inv: 1 / float32(p.KH*p.KW), c: c, h: h, w: w, oh: oh, ow: ow, p: p})
}

// avgPoolImage average-pools one image with count_include_pad.
func avgPoolImage(out, x []float32, inv float32, c, h, w, oh, ow int, p ConvParams, img int) {
	oi := img * c * oh * ow
	for ch := 0; ch < c; ch++ {
		cbase := (img*c + ch) * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.SH - p.PH + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.SW - p.PW + kx
						if ix < 0 || ix >= w {
							continue
						}
						s += x[cbase+iy*w+ix]
					}
				}
				out[oi] = s * inv
				oi++
			}
		}
	}
}

// AvgPoolBackward distributes the output gradient uniformly over each
// pooling window.
func AvgPoolBackward(grad *Tensor, inShape []int, p ConvParams) *Tensor {
	dx := New(inShape...)
	AvgPoolBackwardInto(dx, grad, p)
	return dx
}

// AvgPoolBackwardInto distributes the output gradient into an existing
// input-gradient tensor, overwriting its contents.
func AvgPoolBackwardInto(dx, grad *Tensor, p ConvParams) {
	if dx.Dims() != 4 {
		panic(fmt.Sprintf("tensor: AvgPoolBackwardInto into %v (want NCHW)", dx.Shape))
	}
	n, c, h, w := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	oh, ow := p.OutSize(h, w)
	runImages(n, imageTask{op: opAvgPoolBackward, dst: dx.Data, src: grad.Data,
		inv: 1 / float32(p.KH*p.KW), c: c, h: h, w: w, oh: oh, ow: ow, p: p})
}

// avgPoolBackwardImage zeroes one image's input-gradient block and
// distributes its output gradient uniformly over each window.
func avgPoolBackwardImage(dx, grad []float32, inv float32, c, h, w, oh, ow int, p ConvParams, img int) {
	per := c * h * w
	blk := dx[img*per : (img+1)*per]
	for i := range blk {
		blk[i] = 0
	}
	gi := img * c * oh * ow
	for ch := 0; ch < c; ch++ {
		cbase := img*per + ch*h*w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := grad[gi] * inv
				gi++
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.SH - p.PH + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.SW - p.PW + kx
						if ix < 0 || ix >= w {
							continue
						}
						dx[cbase+iy*w+ix] += g
					}
				}
			}
		}
	}
}
