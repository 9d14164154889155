package tensor

import (
	"math"
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

// gemmShapes exercises every remainder path of the 4x4 blocking: sizes
// below one tile, exact multiples, off-by-one/off-by-three remainders,
// tall/skinny and short/wide, and column counts straddling the gemmNB
// column tile.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{2, 3, 2},
	{3, 5, 3},
	{4, 4, 4},
	{5, 9, 6},
	{7, 13, 5},
	{8, 16, 12},
	{17, 31, 9},
	{64, 1, 64},
	{1, 64, 257},
	{100, 3, 2},
	{2, 3, 300},
	{33, 47, 259},
}

func TestBlockedGEMMMatchesNaive(t *testing.T) {
	for _, p := range []int{1, 8} {
		prev := parallel.Set(p)
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
		parallel.Set(prev)
	}
}

// TestBiasGEMMMatchesSeparateAdd pins the folded-bias epilogue to
// fl(fl(Σ)+bias): exactly what MatMulInto + AddRowVector produces.
func TestBiasGEMMMatchesSeparateAdd(t *testing.T) {
	r := NewRNG(7)
	for _, s := range gemmShapes {
		a := randTensor(r, s.m, s.k)
		b := randTensor(r, s.k, s.n)
		bias := randTensor(r, s.n)

		want := New(s.m, s.n)
		MatMulInto(want, a, b)
		AddRowVector(want, bias)
		got := New(s.m, s.n)
		MatMulBiasInto(got, a, b, bias)
		sameBits(t, "MatMulBias", got, want)

		bt := randTensor(r, s.n, s.k)
		MatMulT2Into(want, a, bt)
		AddRowVector(want, bias)
		MatMulT2BiasInto(got, a, bt, bias)
		sameBits(t, "MatMulT2Bias", got, want)
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

// TestParallelGEMMDoesNotAllocate extends the PR 4 zero-alloc guarantee
// to the parallel branch: shapes above gemmCutoff at parallelism 4 must
// fan out through the pooled kernel path without touching the allocator.
func TestParallelGEMMDoesNotAllocate(t *testing.T) {
	prev := parallel.Set(4)
	defer parallel.Set(prev)
	r := NewRNG(3)
	// 64*64*64 = 262144 multiply-adds, far above gemmCutoff (1<<15).
	a := randTensor(r, 64, 64)
	b := randTensor(r, 64, 64)
	at := randTensor(r, 64, 64)
	bias := randTensor(r, 64)
	dst := New(64, 64)
	run := func() {
		MatMulInto(dst, a, b)
		MatMulT1Into(dst, at, b)
		MatMulT2Into(dst, a, b)
		MatMulBiasInto(dst, a, b, bias)
		MatMulT2BiasInto(dst, a, b, bias)
	}
	for i := 0; i < 8; i++ { // warm worker, job, and task pools
		run()
	}
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("parallel GEMM allocates %.1f allocs/op, want 0", avg)
	}
}
