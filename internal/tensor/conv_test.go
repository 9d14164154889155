package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConvParamsOutSize(t *testing.T) {
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	oh, ow := p.OutSize(8, 8)
	if oh != 8 || ow != 8 {
		t.Fatalf("same-padding 3x3 should preserve size, got %dx%d", oh, ow)
	}
	p2 := ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}
	oh, ow = p2.OutSize(8, 8)
	if oh != 4 || ow != 4 {
		t.Fatalf("2x2/2 pool of 8x8 = %dx%d, want 4x4", oh, ow)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 makes im2col a pure reshape.
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	p := ConvParams{KH: 1, KW: 1, SH: 1, SW: 1}
	cols := New(4, 1)
	Im2ColInto(cols, x, p)
	if cols.Shape[0] != 4 || cols.Shape[1] != 1 {
		t.Fatalf("cols shape %v", cols.Shape)
	}
	for i, w := range []float32{1, 2, 3, 4} {
		if cols.Data[i] != w {
			t.Fatalf("cols = %v", cols.Data)
		}
	}
}

func TestIm2ColHandComputed(t *testing.T) {
	// 1 image, 1 channel, 3x3 input, 2x2 kernel, stride 1, no padding.
	x := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	p := ConvParams{KH: 2, KW: 2, SH: 1, SW: 1}
	cols := New(4, 4)
	Im2ColInto(cols, x, p)
	want := [][]float32{
		{1, 2, 4, 5}, {2, 3, 5, 6},
		{4, 5, 7, 8}, {5, 6, 8, 9},
	}
	for r, wr := range want {
		for c, w := range wr {
			if cols.At(r, c) != w {
				t.Fatalf("cols[%d][%d] = %v, want %v", r, c, cols.At(r, c), w)
			}
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := Ones(1, 1, 2, 2)
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	cols := New(4, 9)
	Im2ColInto(cols, x, p)
	// Top-left output position: only the bottom-right 2x2 of the kernel
	// overlaps real pixels.
	row0 := cols.Data[:9]
	wantZeros := []int{0, 1, 2, 3, 6}
	for _, i := range wantZeros {
		if row0[i] != 0 {
			t.Fatalf("padding cell %d should be 0: %v", i, row0)
		}
	}
	if row0[4] != 1 || row0[5] != 1 || row0[7] != 1 || row0[8] != 1 {
		t.Fatalf("interior cells wrong: %v", row0)
	}
}

// Col2ImInto is the adjoint of Im2ColInto: <im2col(x), y> == <x, col2im(y)>.
// This adjoint property is exactly what makes the conv backward pass
// correct, so we verify it directly as a property test.
func TestCol2ImAdjointProperty(t *testing.T) {
	r := NewRNG(11)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n, c := 1+rr.Intn(2), 1+rr.Intn(2)
		h := 3 + rr.Intn(4)
		w := 3 + rr.Intn(4)
		p := ConvParams{KH: 1 + rr.Intn(3), KW: 1 + rr.Intn(3), SH: 1 + rr.Intn(2), SW: 1 + rr.Intn(2)}
		p.PH, p.PW = rr.Intn(2), rr.Intn(2)
		if h+2*p.PH < p.KH || w+2*p.PW < p.KW {
			return true // window does not fit; skip
		}
		x := RandNormal(rr, 0, 1, n, c, h, w)
		oh, ow := p.OutSize(h, w)
		cols, img := New(n*oh*ow, c*p.KH*p.KW), New(x.Shape...)
		Im2ColInto(cols, x, p)
		y := RandNormal(rr, 0, 1, cols.Shape...)
		Col2ImInto(img, y, p)
		lhs := Dot(cols, y)
		rhs := Dot(x, img)
		return almostEq(lhs, rhs, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}
	y, arg := MaxPool(x, p)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("MaxPool = %v, want %v", y.Data, want)
		}
	}
	g := Ones(1, 1, 2, 2)
	dx := MaxPoolBackward(g, arg, x.Shape)
	// Gradient flows only to argmax positions.
	var nonzero int
	for i, v := range dx.Data {
		if v != 0 {
			nonzero++
			if x.Data[i] != want[0] && x.Data[i] != want[1] && x.Data[i] != want[2] && x.Data[i] != want[3] {
				t.Fatalf("gradient leaked to non-max position %d", i)
			}
		}
	}
	if nonzero != 4 {
		t.Fatalf("expected 4 gradient positions, got %d", nonzero)
	}
}

func TestAvgPoolForwardBackward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	p := ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}
	y := New(1, 1, 1, 1)
	AvgPoolInto(y, x, p)
	if y.Size() != 1 || y.Data[0] != 2.5 {
		t.Fatalf("AvgPool = %v", y.Data)
	}
	g := FromSlice([]float32{4}, 1, 1, 1, 1)
	dx := New(x.Shape...)
	AvgPoolBackwardInto(dx, g, p)
	for _, v := range dx.Data {
		if v != 1 {
			t.Fatalf("AvgPoolBackward = %v, want all 1", dx.Data)
		}
	}
}

// Property: max pooling gradient preserves total mass when windows do
// not overlap (stride == kernel).
func TestMaxPoolGradMassProperty(t *testing.T) {
	r := NewRNG(23)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		k := 1 + rr.Intn(3)
		hw := k * (1 + rr.Intn(3))
		x := RandNormal(rr, 0, 1, 1, 2, hw, hw)
		p := ConvParams{KH: k, KW: k, SH: k, SW: k}
		y, arg := MaxPool(x, p)
		g := RandNormal(rr, 0, 1, y.Shape...)
		dx := MaxPoolBackward(g, arg, x.Shape)
		return almostEq(dx.Sum(), g.Sum(), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := NewRNG(6)
	same := true
	a2 := NewRNG(5)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(1)
	s1 := root.Split(1)
	s2 := root.Split(2)
	same := true
	for i := 0; i < 10; i++ {
		if s1.Uint64() != s2.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("split streams must differ")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(4)
	var sum, sq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := float64(r.Normal())
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestHeXavierInitScale(t *testing.T) {
	r := NewRNG(10)
	h := HeInit(r, 100, 10000)
	// std should be ~sqrt(2/100) ≈ 0.1414
	var sq float64
	for _, v := range h.Data {
		sq += float64(v) * float64(v)
	}
	std := sq / float64(h.Size())
	if std < 0.015 || std > 0.025 {
		t.Fatalf("He init variance = %v, want ~0.02", std)
	}
	x := XavierInit(r, 50, 50, 10000)
	if x.AbsMax() > float32(0.245)+1e-6 { // sqrt(6/100) ≈ 0.2449
		t.Fatalf("Xavier exceeded limit: %v", x.AbsMax())
	}
}

// naiveIm2Col is the per-element definition the row-wise kernel must
// reproduce: column (ch·KH+ky)·KW+kx of row (img·OH+oy)·OW+ox holds
// x[img, ch, oy·SH−PH+ky, ox·SW−PW+kx], or 0 in the padding.
func naiveIm2Col(x *Tensor, p ConvParams) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	cols := New(n*oh*ow, c*p.KH*p.KW)
	i := 0
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < p.KH; ky++ {
						for kx := 0; kx < p.KW; kx++ {
							iy, ix := oy*p.SH-p.PH+ky, ox*p.SW-p.PW+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								cols.Data[i] = x.Data[((img*c+ch)*h+iy)*w+ix]
							}
							i++
						}
					}
				}
			}
		}
	}
	return cols
}

// naiveCol2Im folds in the per-window (img, oy, ox, ch, ky, kx) order,
// so every image cell sums its contributions from +0 in ascending
// (oy, ox) order — the order whose float rounding Col2ImInto must keep.
func naiveCol2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	oh, ow := p.OutSize(h, w)
	img := New(n, c, h, w)
	i := 0
	for in := 0; in < n; in++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < p.KH; ky++ {
						for kx := 0; kx < p.KW; kx++ {
							iy, ix := oy*p.SH-p.PH+ky, ox*p.SW-p.PW+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								img.Data[((in*c+ch)*h+iy)*w+ix] += cols.Data[i]
							}
							i++
						}
					}
				}
			}
		}
	}
	return img
}

// checkConvMatchesNaive runs Im2ColInto and Col2ImInto on one case and
// demands the naive loops' bits. Both outputs sit in buffers whose
// capacity runs on into sentinel words, so a kernel that reslices past
// its operand shows up as an overwritten sentinel.
func checkConvMatchesNaive(t *testing.T, r *RNG, n, c, h, w int, p ConvParams, special float32) {
	t.Helper()
	const guard = 16
	sentinel := math.Float32frombits(0x7fa5a5a5)
	guarded := func(shape ...int) (*Tensor, []float32) {
		size := 1
		for _, d := range shape {
			size *= d
		}
		buf := make([]float32, size+guard)
		for i := range buf {
			buf[i] = sentinel
		}
		return &Tensor{Shape: shape, Data: buf[:size]}, buf[size:]
	}
	intact := func(name string, g []float32) {
		t.Helper()
		for i, v := range g {
			if math.Float32bits(v) != 0x7fa5a5a5 {
				t.Fatalf("%s %dx%dx%dx%d %+v: guard word %d overwritten with %v", name, n, c, h, w, p, i, v)
			}
		}
	}
	x := randTensor(r, n, c, h, w)
	x.Data[r.Intn(len(x.Data))] = special
	oh, ow := p.OutSize(h, w)
	cols, colsGuard := guarded(n*oh*ow, c*p.KH*p.KW)
	Im2ColInto(cols, x, p)
	intact("Im2ColInto", colsGuard)
	sameBits(t, fmt.Sprintf("Im2ColInto %dx%dx%dx%d %+v", n, c, h, w, p), cols, naiveIm2Col(x, p))

	g := randTensor(r, cols.Shape...)
	g.Data[r.Intn(len(g.Data))] = special
	dx, dxGuard := guarded(n, c, h, w)
	Col2ImInto(dx, g, p)
	intact("Col2ImInto", dxGuard)
	sameBits(t, fmt.Sprintf("Col2ImInto %dx%dx%dx%d %+v", n, c, h, w, p), dx, naiveCol2Im(g, n, c, h, w, p))
}

// TestIm2ColCol2ImMatchNaive walks every window geometry the row-wise
// split distinguishes — kernels 1…5 (the KW = 3 fast path and the
// generic run), strides 1…3, padding 0…2 (no edge windows, one, two,
// and windows wholly in the padding), rows narrower than the kernel,
// and the 3×3/1/1 patch kernel — with a −0, NaN or ±Inf planted in
// each input.
func TestIm2ColCol2ImMatchNaive(t *testing.T) {
	r := NewRNG(31)
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	cases := 0
	for _, k := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {5, 5}, {3, 1}, {1, 3}, {2, 5}} {
		for s := 1; s <= 3; s++ {
			for pad := 0; pad <= 2; pad++ {
				for _, hw := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {5, 8}, {8, 8}, {9, 7}} {
					p := ConvParams{KH: k[0], KW: k[1], SH: s, SW: 1 + (s+pad)%3, PH: pad, PW: (pad + 1) % 3}
					if hw[0]+2*p.PH < p.KH || hw[1]+2*p.PW < p.KW {
						continue
					}
					checkConvMatchesNaive(t, r, 2, 3, hw[0], hw[1], p, specials[cases%len(specials)])
					cases++
				}
			}
		}
	}
	// The patch kernel's 3×3/1/1, which the table above never forms,
	// at every image size the model zoo runs and where both neighbour
	// rows (h = 1) or columns (w = 1) are padding.
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	for _, n := range []int{1, 3} {
		for _, h := range []int{1, 2, 3, 4, 8} {
			for _, w := range []int{1, 2, 3, 4, 8} {
				checkConvMatchesNaive(t, r, n, 1+cases%4, h, w, p, specials[cases%len(specials)])
				cases++
			}
		}
	}
	if cases < 250 {
		t.Fatalf("only %d cases ran", cases)
	}
}

// FuzzIm2ColMatchesNaive draws the image and window geometry and plants
// one NaN, ±Inf or −0; Im2ColInto and Col2ImInto must give the naive
// loops' bits and stay inside their operands.
func FuzzIm2ColMatchesNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, n8, c8, h8, w8, k8, s8, p8 uint8, seed uint64) {
		n, c, h, w := 1+int(n8)%3, 1+int(c8)%4, 1+int(h8)%12, 1+int(w8)%12
		p := ConvParams{KH: 1 + int(k8)%5, KW: 1 + int(k8/5)%5, SH: 1 + int(s8)%3, SW: 1 + int(s8/3)%3,
			PH: int(p8) % 3, PW: int(p8/3) % 3}
		if h+2*p.PH < p.KH || w+2*p.PW < p.KW {
			t.Skip("window does not fit")
		}
		specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		checkConvMatchesNaive(t, NewRNG(seed), n, c, h, w, p, specials[seed%4])
	})
}

// BenchmarkIm2Col times the two lowering kernels at the ladder's
// tensor.im2col_gbps shape ([16,16,4,4], 3×3/1/1) and at vgg11-micro's
// first conv on train-conv's 8×8 images; the MB/s column counts bytes
// read plus written, as the ladder does.
func BenchmarkIm2Col(b *testing.B) {
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	for _, s := range [][4]int{{16, 16, 4, 4}, {16, 3, 8, 8}} {
		r := NewRNG(1)
		x := randTensor(r, s[0], s[1], s[2], s[3])
		oh, ow := p.OutSize(s[2], s[3])
		cols := randTensor(r, s[0]*oh*ow, s[1]*9)
		dx := New(s[0], s[1], s[2], s[3])
		name := fmt.Sprintf("%dx%dx%dx%d", s[0], s[1], s[2], s[3])
		b.Run("im2col/"+name, func(b *testing.B) {
			b.SetBytes(int64(4 * (cols.Size() + x.Size())))
			for i := 0; i < b.N; i++ {
				Im2ColInto(cols, x, p)
			}
		})
		b.Run("col2im/"+name, func(b *testing.B) {
			b.SetBytes(int64(4 * (cols.Size() + x.Size())))
			for i := 0; i < b.N; i++ {
				Col2ImInto(dx, cols, p)
			}
		})
	}
}

// TestImageKernelsRejectBadOperands: every image-kernel entry point
// validates its operands before a kernel runs. Before nchw and colShape,
// the 5-D, extra-dimension and mismatched-batch rows were silently read
// as a different image, and the others failed with an index out of
// range inside the kernel instead of naming the operand.
func TestImageKernelsRejectBadOperands(t *testing.T) {
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	pool := ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}
	x := New(2, 1, 4, 4)
	cases := []struct {
		name string
		call func()
	}{
		{"Im2ColInto 3-D x", func() { Im2ColInto(New(32, 9), New(2, 4, 4), p) }},
		{"Im2ColInto cols with an extra dimension", func() { Im2ColInto(New(32, 9, 1), x, p) }},
		{"Col2ImInto 1-D cols", func() { Col2ImInto(x, New(32*9), p) }},
		{"Col2ImInto cols with an extra dimension", func() { Col2ImInto(x, New(32, 9, 1), p) }},
		{"Col2ImInto 3-D img", func() { Col2ImInto(New(2, 4, 4), New(32, 9), p) }},
		{"MaxPoolInto 3-D x", func() { MaxPoolInto(New(2, 2, 2), make([]int, 8), New(2, 4, 4), pool) }},
		{"MaxPoolInto 5-D x", func() { MaxPoolInto(New(2, 1, 2, 2), make([]int, 8), New(2, 1, 4, 4, 2), pool) }},
		{"MaxPoolBackwardInto mismatched batch", func() { MaxPoolBackwardInto(New(4, 1, 4, 4), New(2, 1, 2, 2), make([]int, 8)) }},
		{"MaxPoolBackwardInto short arg", func() { MaxPoolBackwardInto(x, New(2, 1, 2, 2), make([]int, 7)) }},
		{"AvgPoolInto 3-D x", func() { AvgPoolInto(New(2, 2, 2), New(2, 4, 4), pool) }},
		{"AvgPoolBackwardInto short grad", func() { AvgPoolBackwardInto(x, New(2, 1, 2, 1), pool) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.HasPrefix(msg, "tensor: ") {
					t.Errorf("%s: want a tensor: panic naming the operand, got %v", c.name, msg)
				}
			}()
			c.call()
		}()
	}
}

// naiveMaxPool is max pooling as the per-window scan: each window's
// first in-image cell, then each later cell v with v > best, row by
// row. It is the oracle for the value and the first-wins argmax.
func naiveMaxPool(x *Tensor, p ConvParams) (*Tensor, []int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	out, arg := New(n, c, oh, ow), make([]int, n*c*oh*ow)
	oi := 0
	for plane := 0; plane < n*c; plane++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, bi := float32(0), -1
				for ky := 0; ky < p.KH; ky++ {
					for kx := 0; kx < p.KW; kx++ {
						iy, ix := oy*p.SH-p.PH+ky, ox*p.SW-p.PW+kx
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						i := (plane*h+iy)*w + ix
						if v := x.Data[i]; bi < 0 || v > best {
							best, bi = v, i
						}
					}
				}
				out.Data[oi], arg[oi] = best, bi
				oi++
			}
		}
	}
	return out, arg
}

// checkMaxPool runs MaxPoolInto with an argmax (train) and without one
// (eval) and demands the oracle's bits and argmax.
func checkMaxPool(t *testing.T, x *Tensor, p ConvParams) {
	t.Helper()
	want, wantArg := naiveMaxPool(x, p)
	got, arg := New(want.Shape...), make([]int, want.Size())
	MaxPoolInto(got, arg, x, p)
	sameBits(t, fmt.Sprintf("MaxPoolInto train %v %+v", x.Shape, p), got, want)
	for i := range arg {
		if arg[i] != wantArg[i] {
			t.Fatalf("MaxPoolInto %v %+v: arg[%d] = %d, want %d", x.Shape, p, i, arg[i], wantArg[i])
		}
	}
	eval := New(want.Shape...)
	MaxPoolInto(eval, nil, x, p)
	sameBits(t, fmt.Sprintf("MaxPoolInto eval %v %+v", x.Shape, p), eval, want)
}

// TestMaxPool2x2SelectExhaustive runs the 2×2 pool, eval value and
// train value + argmax, on all 8⁴ windows over NaN, −Inf, −1, −0, +0,
// the smallest denormal, 1 and +Inf: ties keep the earlier cell, −0 and
// +0 tie, and a NaN wins only from the first cell. The windows tile two
// images of two channels, so the argmax offsets cross planes.
func TestMaxPool2x2SelectExhaustive(t *testing.T) {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(-1)), -1, float32(math.Copysign(0, -1)),
		0, math.Float32frombits(1), 1, float32(math.Inf(1)),
	}
	const windows = 8 * 8 * 8 * 8
	n, c, h, w := 2, 2, 2, 2*windows/4
	x := New(n, c, h, w)
	for k := 0; k < windows; k++ {
		plane, col := k/(windows/4), 2*(k%(windows/4))
		base := plane * h * w
		x.Data[base+col] = specials[k&7]
		x.Data[base+col+1] = specials[k>>3&7]
		x.Data[base+w+col] = specials[k>>6&7]
		x.Data[base+w+col+1] = specials[k>>9&7]
	}
	checkMaxPool(t, x, ConvParams{KH: 2, KW: 2, SH: 2, SW: 2})
}

// TestMaxPoolMatchesNaive walks pool geometries beside the model zoo's
// 2×2/2 — overlapping 2×2 windows, a stride per axis, padded and
// clipped 3×3 windows — with one special planted per input.
func TestMaxPoolMatchesNaive(t *testing.T) {
	r := NewRNG(41)
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i, p := range []ConvParams{
		{KH: 2, KW: 2, SH: 2, SW: 2}, {KH: 2, KW: 2, SH: 1, SW: 1}, {KH: 2, KW: 2, SH: 1, SW: 2},
		{KH: 3, KW: 3, SH: 2, SW: 2}, {KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}, {KH: 2, KW: 2, SH: 2, SW: 2, PH: 1, PW: 1},
	} {
		for _, hw := range [][2]int{{2, 2}, {5, 4}, {8, 8}, {7, 9}} {
			x := randTensor(r, 2, 3, hw[0], hw[1])
			x.Data[r.Intn(len(x.Data))] = specials[i%len(specials)]
			checkMaxPool(t, x, p)
		}
	}
}
