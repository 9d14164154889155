package tensor

import (
	"fmt"
	"math"
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

// nchw returns x's dimensions. Every image-kernel entry point validates
// its operands before any kernel runs, because the kernels trust the
// shapes they are handed; a 3-D or 5-D tensor is refused here instead of
// failing inside a kernel or being read as a different image.
func nchw(name string, x *Tensor) (n, c, h, w int) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: %s needs an NCHW operand, got %v", name, x.Shape))
	}
	return x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
}

// colShape panics unless cols is the [rows, width] column matrix.
func colShape(name string, cols *Tensor, rows, width int) {
	if cols.Dims() != 2 || cols.Shape[0] != rows || cols.Shape[1] != width {
		panic(fmt.Sprintf("tensor: %s cols %v, want [%d %d]", name, cols.Shape, rows, width))
	}
}

// Im2ColInto unfolds input x[N,C,H,W] into an existing column matrix
// of shape [N*OH*OW, C*KH*KW], overwriting every element, so a
// convolution becomes a single GEMM against the reshaped kernel. This
// is the same lowering MNN (the paper's CPU backend) uses for mobile
// convolutions.
func Im2ColInto(cols, x *Tensor, p ConvParams) {
	n, c, h, w := nchw("Im2ColInto", x)
	oh, ow := p.OutSize(h, w)
	colShape("Im2ColInto", cols, n*oh*ow, c*p.KH*p.KW)
	for img := 0; img < n; img++ {
		im2colImage(cols.Data, x.Data, cols.Shape[1], c, h, w, oh, ow, p, img)
	}
}

// Row-wise lowering. Output row oy of channel ch reads image row
// iy = oy·SH−PH+ky for each ky, and every window of that output row
// takes its KW-wide run from that one image row, at ix0 = ox·SW−PW. So
// both kernels walk (oy, ch, ky), settle the vertical padding once per
// image row, and hand the row to a row kernel that clips only the edge
// windows reaching into the padding. The 3×3, stride-1, pad-1 "same"
// conv — every conv layer of vgg11-micro and lenet5-micro and the
// ResNet bodies — gets its own kernels. im2colPatch3 takes all three
// image rows of an (oy, ch) at once and writes each window's nine values
// as one run; col2imSame3 folds a 3-wide run per image row and touches
// each pixel once. On a 2-vCPU AVX2 Xeon, `go test -bench Im2Col -cpu 1`
// ran the row-wise same3 pair 2.1–3.1× faster than the generic pair at
// both benchmark shapes; the patch kernel ran 1.6–2.1× ([16,16,4,4])
// and 1.2–2.0× ([16,3,8,8]) faster than the row-wise same3 im2col it
// replaced, over three alternating runs.

// interiorCols returns the window range [oxLo, oxHi) whose KW-wide runs
// lie wholly inside an image row of width w: ox·SW−PW ≥ 0 and
// ox·SW−PW+KW ≤ w. Windows outside it reach into the padding.
func interiorCols(w, ow int, p ConvParams) (oxLo, oxHi int) {
	oxLo = min((p.PW+p.SW-1)/p.SW, ow)
	oxHi = oxLo
	if e := w + p.PW - p.KW; e >= 0 {
		oxHi = max(oxLo, min(ow, e/p.SW+1))
	}
	return oxLo, oxHi
}

// same3 reports whether p is the 3×3-run, stride-1, pad-1 geometry the
// same3 row kernel handles, whose OW equals W.
func (p ConvParams) same3() bool { return p.KW == 3 && p.SW == 1 && p.PW == 1 }

// patch3 reports whether p is the full 3×3, stride-1, pad-1 geometry
// the patch kernel handles, whose output is the image's size.
func (p ConvParams) patch3() bool { return p.same3() && p.KH == 3 && p.SH == 1 && p.PH == 1 }

// im2colImage unfolds one image's windows into its rows of the column
// matrix. Column (ch·KH+ky)·KW+kx of row oy·OW+ox holds
// x[ch, oy·SH−PH+ky, ox·SW−PW+kx], or 0 where that lies in the
// padding — pure data movement, so any loop order gives the same bits.
func im2colImage(cols, x []float32, colW, c, h, w, oh, ow int, p ConvParams, img int) {
	kw, patch3 := p.KW, p.patch3()
	oxLo, oxHi := interiorCols(w, ow, p)
	for oy := 0; oy < oh; oy++ {
		rows := cols[(img*oh+oy)*ow*colW : (img*oh+oy+1)*ow*colW]
		for ch := 0; ch < c; ch++ {
			plane := x[(img*c+ch)*h*w : (img*c+ch+1)*h*w]
			if patch3 {
				im2colPatch3(rows[ch*9:], plane, colW, h, w, oy)
				continue
			}
			for ky := 0; ky < p.KH; ky++ {
				d := rows[(ch*p.KH+ky)*kw:]
				switch iy := oy*p.SH - p.PH + ky; {
				case iy < 0 || iy >= h:
					// An indexed loop: the range form becomes a
					// memclr call per run, dear at KW = 3.
					for ox := 0; ox < ow; ox++ {
						for i := ox * colW; i < ox*colW+kw; i++ {
							d[i] = 0
						}
					}
				default:
					im2colRow(d, plane[iy*w:(iy+1)*w], colW, ow, oxLo, oxHi, p)
				}
			}
		}
	}
}

// im2colPatch3 writes output row oy's windows of one h×w channel plane
// for the patch3 geometry: window ox gets image rows oy−1, oy, oy+1 at
// columns ox−1, ox, ox+1 as one nine-value run at d[ox·colW], with 0
// wherever that lies outside the image. Each row's three values slide
// through registers, so each pixel is loaded once; top and bot are
// fixed for the call, so their tests are always predicted.
func im2colPatch3(d, plane []float32, colW, h, w, oy int) {
	top, bot := oy > 0, oy+1 < h // whether rows oy−1 and oy+1 exist
	r0 := plane[max(oy-1, 0)*w:][:w]
	r1 := plane[oy*w:][:w]
	r2 := plane[min(oy+1, h-1)*w:][:w]
	var a0, a1, a2 float32 // column ox−1: the padding at ox = 0
	var b0, b2 float32     // column ox
	b1 := r1[0]
	if top {
		b0 = r0[0]
	}
	if bot {
		b2 = r2[0]
	}
	ox := 0
	for ; ox+1 < w; ox++ {
		var c0, c2 float32 // column ox+1
		c1 := r1[ox+1]
		if top {
			c0 = r0[ox+1]
		}
		if bot {
			c2 = r2[ox+1]
		}
		o := d[ox*colW : ox*colW+9 : ox*colW+9]
		o[0], o[1], o[2] = a0, b0, c0
		o[3], o[4], o[5] = a1, b1, c1
		o[6], o[7], o[8] = a2, b2, c2
		a0, a1, a2, b0, b1, b2 = b0, b1, b2, c0, c1, c2
	}
	o := d[ox*colW : ox*colW+9 : ox*colW+9]
	o[0], o[1], o[2] = a0, b0, 0
	o[3], o[4], o[5] = a1, b1, 0
	o[6], o[7], o[8] = a2, b2, 0
}

// im2colRow writes one image row's KW-wide runs for any geometry:
// windows [oxLo, oxHi) copy a full run, the rest clip per element.
func im2colRow(d, xr []float32, colW, ow, oxLo, oxHi int, p ConvParams) {
	for ox := 0; ox < ow; ox++ {
		o := d[ox*colW : ox*colW+p.KW]
		ix0 := ox*p.SW - p.PW
		if ox >= oxLo && ox < oxHi {
			copy(o, xr[ix0:ix0+p.KW])
			continue
		}
		for kx := range o {
			if ix := ix0 + kx; ix >= 0 && ix < len(xr) {
				o[kx] = xr[ix]
			} else {
				o[kx] = 0
			}
		}
	}
}

// Col2ImInto folds a column matrix (as Im2ColInto lays it out) back
// into an existing NCHW tensor, overwriting its contents: overlapping
// window contributions accumulate from zero, not from img's prior
// values. It is the adjoint of Im2ColInto and computes the convolution
// input gradient.
func Col2ImInto(img, cols *Tensor, p ConvParams) {
	n, c, h, w := nchw("Col2ImInto", img)
	oh, ow := p.OutSize(h, w)
	colShape("Col2ImInto", cols, n*oh*ow, c*p.KH*p.KW)
	for in := 0; in < n; in++ {
		col2imImage(img.Data, cols.Data, cols.Shape[1], c, h, w, oh, ow, p, in)
	}
}

// col2imImage folds one image's column rows back into its NCHW block,
// zeroing the block first. The order of the float sums is the contract:
// every image cell starts at +0 and adds its contributions in ascending
// (oy, ox) order, the order of the per-window loop the row-wise walk
// replaced. The walk keeps it: oy is the outer loop, a cell meets at
// most one ky per oy (ky = iy−oy·SH+PH), and each row kernel adds a
// cell's windows in ascending ox.
func col2imImage(img, cols []float32, colW, c, h, w, oh, ow int, p ConvParams, in int) {
	blk := img[in*c*h*w : (in+1)*c*h*w]
	clear(blk)
	kw, same3 := p.KW, p.same3()
	oxLo, oxHi := interiorCols(w, ow, p)
	for oy := 0; oy < oh; oy++ {
		rows := cols[(in*oh+oy)*ow*colW : (in*oh+oy+1)*ow*colW]
		for ch := 0; ch < c; ch++ {
			plane := blk[ch*h*w : (ch+1)*h*w]
			for ky := 0; ky < p.KH; ky++ {
				iy := oy*p.SH - p.PH + ky
				if iy < 0 || iy >= h {
					continue
				}
				d := rows[(ch*p.KH+ky)*kw:]
				if same3 {
					col2imSame3(plane[iy*w:(iy+1)*w], d, colW)
				} else {
					col2imRow(plane[iy*w:(iy+1)*w], d, colW, ow, oxLo, oxHi, p)
				}
			}
		}
	}
}

// col2imSame3 folds one image row's 3-wide runs of a same3 conv back:
// pixel ix gathers window ix−1's kx = 2, window ix's kx = 1 and window
// ix+1's kx = 0, in that (ascending ox) order, and is loaded and stored
// once.
func col2imSame3(xr, d []float32, colW int) {
	last := len(xr) - 1
	for ix := range xr {
		v := xr[ix]
		if ix > 0 {
			v += d[(ix-1)*colW+2]
		}
		v += d[ix*colW+1]
		if ix < last {
			v += d[(ix+1)*colW]
		}
		xr[ix] = v
	}
}

// col2imRow is im2colRow's adjoint: windows in ascending ox add their
// runs into image row xr, the edge windows dropping what falls in the
// padding.
func col2imRow(xr, d []float32, colW, ow, oxLo, oxHi int, p ConvParams) {
	for ox := 0; ox < ow; ox++ {
		s := d[ox*colW : ox*colW+p.KW]
		ix0 := ox*p.SW - p.PW
		if ox >= oxLo && ox < oxHi {
			o := xr[ix0 : ix0+p.KW]
			for kx, v := range s {
				o[kx] += v
			}
			continue
		}
		for kx, v := range s {
			if ix := ix0 + kx; ix >= 0 && ix < len(xr) {
				xr[ix] += v
			}
		}
	}
}

// MaxPoolInto applies max pooling to x[N,C,H,W] into an existing output
// tensor and argmax slice (len(arg) == out.Size()), overwriting both:
// arg holds the flat input index of each output's maximum, which the
// backward pass scatters to. A nil arg skips the argmax: an eval
// forward keeps no backward state.
func MaxPoolInto(out *Tensor, arg []int, x *Tensor, p ConvParams) {
	n, c, h, w := nchw("MaxPoolInto", x)
	oh, ow := p.OutSize(h, w)
	if out.Size() != n*c*oh*ow || (arg != nil && len(arg) != out.Size()) {
		panic(fmt.Sprintf("tensor: MaxPoolInto out %v/arg %d, want %d elements", out.Shape, len(arg), n*c*oh*ow))
	}
	for img := 0; img < n; img++ {
		if p.KH == 2 && p.KW == 2 && p.PH == 0 && p.PW == 0 {
			maxPool2x2Image(out.Data, arg, x.Data, c, h, w, oh, ow, p, img)
		} else {
			maxPoolImage(out.Data, arg, x.Data, c, h, w, oh, ow, p, img)
		}
	}
}

// maxPool2x2Image pools one image with unpadded 2×2 windows, the pool
// of every model in the zoo; every window lies inside the image. The
// scan is the general loop's: the window's first cell, then each later
// v with v > best, row by row, so ties keep the earlier cell and a NaN
// wins only from the first cell. Carried as a float, each compare
// compiled to a jump on the data, which real activations take at
// random. Carried as bits — for the argmax, the cell's offset packed
// below them in one uint64 — each step is one float compare and one
// conditional move (DESIGN.md §14).
func maxPool2x2Image(out []float32, arg []int, x []float32, c, h, w, oh, ow int, p ConvParams, img int) {
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			oi := ((img*c+ch)*oh + oy) * ow
			o := out[oi : oi+ow]
			r := (img*c+ch)*h*w + oy*p.SH*w // the window row's first cell
			r0, r1 := x[r:r+w], x[r+w:r+2*w]
			if arg == nil {
				for ox := range o {
					i := ox * p.SW
					a, b := r0[i:i+2:i+2], r1[i:i+2:i+2]
					o[ox] = math.Float32frombits(maxStep(maxStep(maxStep(math.Float32bits(a[0]), a[1]), b[0]), b[1]))
				}
				continue
			}
			ar := arg[oi : oi+ow]
			for ox := range o {
				i := ox * p.SW
				a, b := r0[i:i+2:i+2], r1[i:i+2:i+2]
				s := uint64(math.Float32bits(a[0])) << 32
				s = maxStepArg(maxStepArg(maxStepArg(s, a[1], 1), b[0], uint64(w)), b[1], uint64(w+1))
				o[ox], ar[ox] = math.Float32frombits(uint32(s>>32)), r+i+int(uint32(s))
			}
		}
	}
}

// maxStep is one step of the scan: v's bits if v > the value m holds,
// else m.
func maxStep(m uint32, v float32) uint32 {
	if vb := math.Float32bits(v); v > math.Float32frombits(m) {
		m = vb
	}
	return m
}

// maxStepArg is maxStep on a (bits, offset) pair packed as
// bits<<32 | offset.
func maxStepArg(s uint64, v float32, off uint64) uint64 {
	if t := uint64(math.Float32bits(v))<<32 | off; v > math.Float32frombits(uint32(s>>32)) {
		s = t
	}
	return s
}

// maxPoolImage pools one image for any other window, recording argmax
// positions unless arg is nil. Windows that sit fully inside the image
// take a path seeded from the window's first element; it selects the
// same maximum and the same first-wins argmax as the general path,
// which handles clipped edge windows.
func maxPoolImage(out []float32, arg []int, x []float32, c, h, w, oh, ow int, p ConvParams, img int) {
	oi := img * c * oh * ow
	for ch := 0; ch < c; ch++ {
		cbase := (img*c + ch) * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*p.SH - p.PH
			rowInside := iy0 >= 0 && iy0+p.KH <= h
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*p.SW - p.PW
				var best float32
				bi := -1
				if rowInside && ix0 >= 0 && ix0+p.KW <= w {
					wbase := cbase + iy0*w + ix0
					best, bi = x[wbase], wbase
					for ky := 0; ky < p.KH; ky++ {
						row := x[wbase+ky*w : wbase+ky*w+p.KW]
						for kx, v := range row {
							if v > best {
								best, bi = v, wbase+ky*w+kx
							}
						}
					}
				} else {
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
				}
				out[oi] = best
				if arg != nil {
					arg[oi] = bi
				}
				oi++
			}
		}
	}
}

// MaxPoolBackwardInto scatters the output gradient back to the argmax
// positions MaxPoolInto recorded, into an existing input-gradient
// tensor, overwriting its contents.
func MaxPoolBackwardInto(dx, grad *Tensor, arg []int) {
	n, c, _, _ := nchw("MaxPoolBackwardInto", dx)
	if gn, gc, _, _ := nchw("MaxPoolBackwardInto", grad); gn != n || gc != c || len(arg) != grad.Size() {
		panic(fmt.Sprintf("tensor: MaxPoolBackwardInto grad %v/arg %d does not pool dx %v", grad.Shape, len(arg), dx.Shape))
	}
	// Argmax positions recorded for image img always point inside that
	// image's own block of dx. Only the per-image sizes matter here:
	// grad.Size()/n outputs scattered into dx.Size()/n inputs.
	for img := 0; img < n; img++ {
		maxPoolBackwardImage(dx.Data, grad.Data, arg, grad.Size()/n, dx.Size()/n, img)
	}
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

// AvgPoolInto average-pools x[N,C,H,W] into an existing output tensor,
// overwriting its contents. Out-of-bounds window cells count as zeros
// with the full window size as divisor, matching the conventional
// "count_include_pad" behaviour.
func AvgPoolInto(out, x *Tensor, p ConvParams) {
	n, c, h, w := nchw("AvgPoolInto", x)
	oh, ow := p.OutSize(h, w)
	if out.Size() != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: AvgPoolInto out %v, want %d elements", out.Shape, n*c*oh*ow))
	}
	inv := 1 / float32(p.KH*p.KW)
	for img := 0; img < n; img++ {
		avgPoolImage(out.Data, x.Data, inv, c, h, w, oh, ow, p, img)
	}
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

// AvgPoolBackwardInto distributes the output gradient uniformly over
// each pooling window, into an existing input-gradient tensor,
// overwriting its contents.
func AvgPoolBackwardInto(dx, grad *Tensor, p ConvParams) {
	n, c, h, w := nchw("AvgPoolBackwardInto", dx)
	oh, ow := p.OutSize(h, w)
	if grad.Size() != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: AvgPoolBackwardInto grad %v, want %d elements", grad.Shape, n*c*oh*ow))
	}
	inv := 1 / float32(p.KH*p.KW)
	for img := 0; img < n; img++ {
		avgPoolBackwardImage(dx.Data, grad.Data, inv, c, h, w, oh, ow, p, img)
	}
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
