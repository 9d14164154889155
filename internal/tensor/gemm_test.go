package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"socflow/internal/parallel"
)

// naiveMatMul is the reference (i,k,j) triple loop the blocked kernels
// must match bit-for-bit: one accumulator per output element, p
// ascending, no zero-operand skip.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func naiveMatMulT1(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[p*m+i] * b.Data[p*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func naiveMatMulT2(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func randTensor(r *RNG, shape ...int) *Tensor {
	return RandNormal(r, 0, 1, shape...)
}

func sameBits(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	for i := range want.Data {
		g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i])
		if g != w {
			t.Fatalf("%s: element %d = %x, want %x (%v vs %v)",
				name, i, g, w, got.Data[i], want.Data[i])
		}
	}
}

// gemmShapes exercises every block and tail of both kernels: the AVX2
// kernel's 16- and 8-column blocks and masked tails (n 7…257), its
// 4-row bands and 1-row remainders (m 1…9), empty and single-step
// reductions (k 0 and 1), and the Go kernel's 2×4 tiles and edges —
// plus a few tall/skinny and short/wide shapes.
var gemmShapes = func() []struct{ m, k, n int } {
	s := []struct{ m, k, n int }{
		{7, 13, 5},
		{17, 31, 9},
		{64, 1, 64},
		{100, 3, 2},
		{2, 3, 300},
		{33, 47, 259},
		{133, 127, 131}, // m off the 4-row tiles, n off the 16-column tiles
	}
	for _, m := range []int{1, 2, 3, 4, 5, 8, 9} {
		for _, k := range []int{0, 1, 6} {
			for _, n := range []int{7, 8, 9, 15, 16, 17, 24, 255, 256, 257} {
				s = append(s, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return s
}()

// gemmKernel is one implementation of the kernel contract in gemm.go.
type gemmKernel struct {
	name string
	fn   func(dst, a, b, bias []float32, ai, ap, k, n, lo, hi int)
}

// gemmKernels lists the implementations this host runs: the portable Go
// kernel, and the one init selected (the AVX2 kernel on AVX2 hosts, the
// Go kernel again elsewhere).
func gemmKernels() []gemmKernel {
	return []gemmKernel{{"go", gemmRangeGo}, {"host", gemmRange}}
}

// withKernel runs body with every GEMM entry point on kernel k.
func withKernel(k gemmKernel, body func()) {
	prev := gemmRange
	gemmRange = k.fn
	defer func() { gemmRange = prev }()
	body()
}

func TestBlockedGEMMMatchesNaive(t *testing.T) {
	r := NewRNG(42)
	for _, s := range gemmShapes {
		a := randTensor(r, s.m, s.k)
		b := randTensor(r, s.k, s.n)
		got := New(s.m, s.n)
		MatMulInto(got, a, b)
		sameBits(t, "MatMul", got, naiveMatMul(a, b))

		at := randTensor(r, s.k, s.m)
		MatMulT1Into(got, at, b)
		sameBits(t, "MatMulT1", got, naiveMatMulT1(at, b))

		bt := randTensor(r, s.n, s.k)
		MatMulT2Into(got, a, bt)
		sameBits(t, "MatMulT2", got, naiveMatMulT2(a, bt))
	}
}

// TestBiasGEMMMatchesSeparateAdd pins the folded-bias epilogue of every
// kernel to fl(fl(Σ)+bias): exactly what the naive loop followed by
// AddRowVector produces.
func TestBiasGEMMMatchesSeparateAdd(t *testing.T) {
	for _, kern := range gemmKernels() {
		withKernel(kern, func() {
			r := NewRNG(7)
			for _, s := range gemmShapes {
				a := randTensor(r, s.m, s.k)
				b := randTensor(r, s.k, s.n)
				bias := randTensor(r, s.n)

				want := naiveMatMul(a, b)
				AddRowVector(want, bias)
				got := New(s.m, s.n)
				MatMulBiasInto(got, a, b, bias)
				sameBits(t, kern.name+" MatMulBias", got, want)

				bt := randTensor(r, s.n, s.k)
				want = naiveMatMulT2(a, bt)
				AddRowVector(want, bias)
				MatMulT2BiasInto(got, a, bt, bias)
				sameBits(t, kern.name+" MatMulT2Bias", got, want)
			}
		})
	}
}

// TestBlockedGEMMPropagatesNaN guards the no-zero-skip rule in the
// blocked kernels: a NaN anywhere in either operand must poison every
// output element it feeds, even when its partner value is zero.
func TestBlockedGEMMPropagatesNaN(t *testing.T) {
	nan := float32(math.NaN())
	a := New(5, 6) // all zeros
	b := New(6, 7)
	a.Data[2*6+3] = nan
	got := New(5, 7)
	MatMulInto(got, a, b)
	for j := 0; j < 7; j++ {
		if !isNaN32(got.Data[2*7+j]) {
			t.Fatalf("row 2 col %d = %v, want NaN (0*NaN skipped?)", j, got.Data[2*7+j])
		}
	}
	bt := New(7, 6)
	MatMulT2Into(got, a, bt)
	for j := 0; j < 7; j++ {
		if !isNaN32(got.Data[2*7+j]) {
			t.Fatalf("T2 row 2 col %d = %v, want NaN", j, got.Data[2*7+j])
		}
	}
}

// gemmCaller is one concurrent GEMM caller per index: a training group
// or mesh worker with its own output buffer, sharing read-only operands
// and MatMulT2's transposeFree scratch list with the others.
type gemmCaller struct {
	a, b, at, bias *Tensor
	dst            []*Tensor
}

func (g *gemmCaller) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		dst := g.dst[i]
		MatMulInto(dst, g.a, g.b)
		MatMulT1Into(dst, g.at, g.b)
		MatMulT2Into(dst, g.a, g.b)
		MatMulBiasInto(dst, g.a, g.b, g.bias)
		MatMulT2BiasInto(dst, g.a, g.b, g.bias)
	}
}

// TestParallelGEMMDoesNotAllocate extends the zero-alloc guarantee to
// concurrent callers: four goroutines running every GEMM entry point at
// once — MatMulT2's transpose scratch, taken from and returned to the
// shared free list, included — touch the allocator only while warming
// up.
func TestParallelGEMMDoesNotAllocate(t *testing.T) {
	const callers = 4
	prev := parallel.Set(callers)
	defer parallel.Set(prev)
	r := NewRNG(3)
	g := &gemmCaller{a: randTensor(r, 40, 32), b: randTensor(r, 32, 32), at: randTensor(r, 32, 40), bias: randTensor(r, 32)}
	for i := 0; i < callers; i++ {
		g.dst = append(g.dst, New(40, 32))
	}
	run := func() { parallel.ForKernel(callers, g) }
	for i := 0; i < 8; i++ { // warm the worker pool and the scratch list
		run()
	}
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("%d concurrent GEMM callers allocate %.1f allocs/op, want 0", callers, avg)
	}
}

// TestGoKernelMatchesNaive holds the portable kernel to the naive loops
// directly, through the contract's strides, so an AVX2 host still
// covers the path every other host runs.
func TestGoKernelMatchesNaive(t *testing.T) {
	r := NewRNG(11)
	for _, s := range gemmShapes {
		a := randTensor(r, s.m, s.k)
		b := randTensor(r, s.k, s.n)
		bias := randTensor(r, s.n)
		got := New(s.m, s.n)

		gemmRangeGo(got.Data, a.Data, b.Data, nil, s.k, 1, s.k, s.n, 0, s.m)
		sameBits(t, "MatMul", got, naiveMatMul(a, b))

		want := naiveMatMul(a, b)
		AddRowVector(want, bias)
		gemmRangeGo(got.Data, a.Data, b.Data, bias.Data, s.k, 1, s.k, s.n, 0, s.m)
		sameBits(t, "MatMulBias", got, want)

		at := randTensor(r, s.k, s.m)
		gemmRangeGo(got.Data, at.Data, b.Data, nil, 1, s.m, s.k, s.n, 0, s.m)
		sameBits(t, "MatMulT1", got, naiveMatMulT1(at, b))

		bt := randTensor(r, s.n, s.k)
		btt := make([]float32, s.k*s.n)
		transposeInto(btt, bt.Data, s.n, s.k)
		gemmRangeGo(got.Data, a.Data, btt, nil, s.k, 1, s.k, s.n, 0, s.m)
		sameBits(t, "MatMulT2", got, naiveMatMulT2(a, bt))
	}
}

// TestGEMMStaysInsideItsSlices runs every op on every kernel with dst,
// A, B and bias cut out of larger buffers whose margins hold a NaN
// sentinel: a write past a slice shows in the margin, a read past one
// poisons the result.
func TestGEMMStaysInsideItsSlices(t *testing.T) {
	const guard = 40
	sentinel := math.Float32frombits(0x7fa5a5a5)
	type guarded struct {
		buf []float32
		t   *Tensor
	}
	// cut returns a tensor of the given shape holding src's values,
	// inside a sentinel-filled buffer.
	cut := func(src *Tensor, shape ...int) guarded {
		buf := make([]float32, len(src.Data)+2*guard)
		for i := range buf {
			buf[i] = sentinel
		}
		data := buf[guard : guard+len(src.Data) : guard+len(src.Data)]
		copy(data, src.Data)
		return guarded{buf, &Tensor{Shape: shape, Data: data}}
	}
	intact := func(name string, g guarded) {
		t.Helper()
		n := len(g.t.Data)
		for i, v := range append(g.buf[:guard:guard], g.buf[guard+n:]...) {
			if math.Float32bits(v) != 0x7fa5a5a5 {
				t.Fatalf("%s: guard word %d overwritten with %v", name, i, v)
			}
		}
	}
	r := NewRNG(5)
	for _, kern := range gemmKernels() {
		withKernel(kern, func() {
			for _, s := range gemmShapes {
				a, b := randTensor(r, s.m, s.k), randTensor(r, s.k, s.n)
				at, bt := randTensor(r, s.k, s.m), randTensor(r, s.n, s.k)
				bias := randTensor(r, s.n)
				ga, gb := cut(a, s.m, s.k), cut(b, s.k, s.n)
				gat, gbt := cut(at, s.k, s.m), cut(bt, s.n, s.k)
				gbias := cut(bias, s.n)
				name := fmt.Sprintf("%s %dx%dx%d", kern.name, s.m, s.k, s.n)

				dst := cut(New(s.m, s.n), s.m, s.n)
				MatMulBiasInto(dst.t, ga.t, gb.t, gbias.t)
				want := naiveMatMul(a, b)
				AddRowVector(want, bias)
				sameBits(t, name+" MatMulBias", dst.t, want)
				intact(name+" MatMulBias dst", dst)

				dst = cut(New(s.m, s.n), s.m, s.n)
				MatMulT1Into(dst.t, gat.t, gb.t)
				sameBits(t, name+" MatMulT1", dst.t, naiveMatMulT1(at, b))
				intact(name+" MatMulT1 dst", dst)

				dst = cut(New(s.m, s.n), s.m, s.n)
				MatMulT2BiasInto(dst.t, ga.t, gbt.t, gbias.t)
				want = naiveMatMulT2(a, bt)
				AddRowVector(want, bias)
				sameBits(t, name+" MatMulT2Bias", dst.t, want)
				intact(name+" MatMulT2Bias dst", dst)

				for _, g := range []guarded{ga, gb, gat, gbt, gbias} {
					intact(name+" operand", g)
				}
			}
		})
	}
}

// TestGEMMRejectsNon2DOperands: every GEMM entry point checks that its
// operands are 2-D before any kernel trusts their first two dimensions.
// A 3-D operand whose leading dimensions fit used to be multiplied over
// its first k·m elements.
func TestGEMMRejectsNon2DOperands(t *testing.T) {
	a, b := New(4, 3), New(3, 5) // A[m,k], B[k,n]
	at, bt := New(3, 4), New(5, 3)
	a3, at3, b3, bt3 := New(4, 3, 2), New(3, 4, 2), New(3, 5, 2), New(5, 3, 2)
	dst, bias := New(4, 5), New(5)
	cases := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto 3-D A", func() { MatMulInto(dst, a3, b) }},
		{"MatMulInto 3-D B", func() { MatMulInto(dst, a, b3) }},
		{"MatMulBiasInto 3-D A", func() { MatMulBiasInto(dst, a3, b, bias) }},
		{"MatMulBiasInto 3-D B", func() { MatMulBiasInto(dst, a, b3, bias) }},
		{"MatMulT1Into 3-D A", func() { MatMulT1Into(dst, at3, b) }},
		{"MatMulT1Into 3-D B", func() { MatMulT1Into(dst, at, b3) }},
		{"MatMulT2Into 3-D A", func() { MatMulT2Into(dst, a3, bt) }},
		{"MatMulT2Into 3-D B", func() { MatMulT2Into(dst, a, bt3) }},
		{"MatMulT2BiasInto 3-D A", func() { MatMulT2BiasInto(dst, a3, bt, bias) }},
		{"MatMulT2BiasInto 3-D B", func() { MatMulT2BiasInto(dst, a, bt3, bias) }},
		{"MatMulT1Into 1-D A", func() { MatMulT1Into(dst, New(12), b) }},
		{"MatMulT2Into 1-D B", func() { MatMulT2Into(dst, a, New(15)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "2-D") {
					t.Errorf("%s: panic %q, want a 2-D operand check", c.name, msg)
				}
			}()
			c.fn()
		}()
	}
}

// FuzzGEMMMatchesNaive draws a shape and operands, injects one special
// value (NaN, ±Inf or −0) into A, B or the bias, and requires every op
// on every kernel to match the naive loop bit for bit. Its seed corpus
// is in testdata/fuzz/FuzzGEMMMatchesNaive.
func FuzzGEMMMatchesNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, seed uint64, special uint8, withBias bool) {
		m, k, n := 1+int(m8)%24, int(k8)%40, 1+int(n8)
		r := NewRNG(seed)
		a, b, bias := randTensor(r, m, k), randTensor(r, k, n), randTensor(r, n)
		// special: value = special%4, operand = special/4%3.
		v := [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}[special%4]
		if target := [...]*Tensor{a, b, bias}[special/4%3]; len(target.Data) > 0 {
			target.Data[int(seed%uint64(len(target.Data)))] = v
		}
		if !withBias {
			bias = nil
		}
		at, bt := New(k, m), New(n, k)
		transposeInto(at.Data, a.Data, m, k)
		transposeInto(bt.Data, b.Data, k, n)
		wantMM, wantT2 := naiveMatMul(a, b), naiveMatMulT2(a, bt)
		if bias != nil {
			AddRowVector(wantMM, bias)
			AddRowVector(wantT2, bias)
		}
		wantT1 := naiveMatMulT1(at, b)
		for _, kern := range gemmKernels() {
			withKernel(kern, func() {
				got := New(m, n)
				if bias != nil {
					MatMulBiasInto(got, a, b, bias)
				} else {
					MatMulInto(got, a, b)
				}
				sameBits(t, kern.name+" MatMul", got, wantMM)
				MatMulT1Into(got, at, b)
				sameBits(t, kern.name+" MatMulT1", got, wantT1)
				if bias != nil {
					MatMulT2BiasInto(got, a, bt, bias)
				} else {
					MatMulT2Into(got, a, bt)
				}
				sameBits(t, kern.name+" MatMulT2", got, wantT2)
			})
		}
	})
}

// BenchmarkGEMM times the ladder's three GEMM rungs (benchmark/probes.go
// shapes) on every kernel; b.SetBytes carries the FLOPs, so the MB/s
// column reads as MFLOP/s.
func BenchmarkGEMM(b *testing.B) {
	r := NewRNG(1)
	cols, w, bias := randTensor(r, 256, 144), randTensor(r, 16, 144), randTensor(r, 16)
	y, g2 := New(256, 16), randTensor(r, 256, 16)
	dw, dcols := New(16, 144), New(256, 144)
	a, bb, c := randTensor(r, 16, 400), randTensor(r, 400, 120), New(16, 120)
	rungs := []struct {
		name  string
		flops int64
		fn    func()
	}{
		{"conv", 2 * 256 * 144 * 16, func() { MatMulT2BiasInto(y, cols, w, bias) }},
		{"bwd", 4 * 256 * 144 * 16, func() { MatMulT1Into(dw, g2, cols); MatMulInto(dcols, g2, w) }},
		{"small", 2 * 16 * 400 * 120, func() { MatMulInto(c, a, bb) }},
	}
	for _, kern := range gemmKernels() {
		for _, rung := range rungs {
			b.Run(kern.name+"/"+rung.name, func(b *testing.B) {
				withKernel(kern, func() {
					b.SetBytes(rung.flops)
					for i := 0; i < b.N; i++ {
						rung.fn()
					}
				})
			})
		}
	}
}
