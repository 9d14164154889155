package tensor

import (
	"fmt"
	"sync"

	"socflow/internal/parallel"
)

// The GEMM kernels are cache-blocked and register-tiled. Tile shapes
// were measured on the repo's reference host (a narrow in-order-ish
// core where a 4x4 tile's 16 accumulators spill): C = A·B and C = Aᵀ·B
// use a 2-row x 4-column micro-kernel (8 accumulator chains, every
// loaded A and B value feeds multiple multiply-adds), while C = A·Bᵀ
// uses 4 simultaneous dot products against 4 rows of B. Tiling happens
// over the OUTPUT only — each output element keeps a single accumulator
// that sums over p in ascending order, so results are bit-identical to
// the naive (i,k,j) triple loop at every parallelism level (the
// determinism contract in internal/parallel, pinned by the golden
// hex-loss test). There is deliberately no zero-operand skip anywhere:
// 0*NaN must stay NaN so exploding-gradient corruption is never masked.

// gemmCutoff is the multiply-add count below which a GEMM runs on the
// calling goroutine; smaller products finish before a fan-out pays off.
const gemmCutoff = 1 << 15

// gemmNB is the output-column tile width: the B panel feeding one tile
// stays cache-resident while a row band of C streams through it.
const gemmNB = 256

// serialRows reports whether a GEMM of the given multiply-add count
// should skip the pool and run on the calling goroutine.
func serialRows(flops int) bool {
	return flops < gemmCutoff
}

// gemmTask carries one GEMM's operands through parallel.ForKernel.
// Tasks are pooled so the dispatch never touches the allocator.
type gemmTask struct {
	op        int // opMatMul, opMatMulT1, opMatMulT2
	dst, a, b []float32
	bias      []float32 // nil: no bias epilogue
	m, k, n   int
}

const (
	opMatMul = iota
	opMatMulT1
	opMatMulT2
)

// RunRange implements parallel.Kernel over output rows [lo, hi).
func (t *gemmTask) RunRange(lo, hi int) {
	switch t.op {
	case opMatMul:
		matmulRange(t.dst, t.a, t.b, t.bias, t.k, t.n, lo, hi)
	case opMatMulT1:
		matmulT1Range(t.dst, t.a, t.b, t.m, t.k, t.n, lo, hi)
	case opMatMulT2:
		matmulT2Range(t.dst, t.a, t.b, t.bias, t.k, t.n, lo, hi)
	}
}

var gemmTaskPool = sync.Pool{New: func() any { return new(gemmTask) }}

// runGEMM fans a GEMM out over output rows through the persistent
// worker pool, recycling the task struct afterwards.
func runGEMM(op int, dst, a, b, bias []float32, m, k, n int) {
	t := gemmTaskPool.Get().(*gemmTask)
	t.op, t.dst, t.a, t.b, t.bias, t.m, t.k, t.n = op, dst, a, b, bias, m, k, n
	parallel.ForKernel(m, t)
	t.dst, t.a, t.b, t.bias = nil, nil, nil, nil
	gemmTaskPool.Put(t)
}

// MatMul computes C = A x B for 2-D tensors A[m,k] and B[k,n].
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v x %v", a.Shape, b.Shape))
	}
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = A x B into an existing [m,n] tensor,
// overwriting its contents. It is the scratch-buffer variant of MatMul
// and produces bit-identical results.
func MatMulInto(dst, a, b *Tensor) {
	matmulBias(dst, a, b, nil)
}

// MatMulBiasInto computes dst = A x B, then adds bias[n] to every row
// in the store epilogue. The result is bit-identical to MatMulInto
// followed by AddRowVector — each element is fl(fl(Σ) + bias) — while
// saving one full pass over dst.
func MatMulBiasInto(dst, a, b, bias *Tensor) {
	if bias.Dims() != 1 || bias.Shape[0] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulBiasInto bias %v, want [%d]", bias.Shape, b.Shape[1]))
	}
	matmulBias(dst, a, b, bias.Data)
}

func matmulBias(dst, a, b *Tensor, bias []float32) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInto needs 2-D operands, got %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst %v, want [%d %d]", dst.Shape, m, n))
	}
	t0 := countGEMM(m, k, n)
	defer gemmDone(t0)
	if serialRows(m * k * n) {
		matmulRange(dst.Data, a.Data, b.Data, bias, k, n, 0, m)
		return
	}
	runGEMM(opMatMul, dst.Data, a.Data, b.Data, bias, m, k, n)
}

// matmulRange computes C = A·B output rows [lo, hi) with a 2x4
// micro-kernel: two A rows stream against a four-column B panel, so
// every B load feeds two multiply-adds and the eight accumulators keep
// independent dependency chains.
func matmulRange(dst, a, b, bias []float32, k, n, lo, hi int) {
	for jb := 0; jb < n; jb += gemmNB {
		je := jb + gemmNB
		if je > n {
			je = n
		}
		i := lo
		for ; i+2 <= hi; i += 2 {
			a0 := a[i*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			c0 := dst[i*n : (i+1)*n]
			c1 := dst[(i+1)*n : (i+2)*n]
			j := jb
			for ; j+4 <= je; j += 4 {
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				for p := 0; p < k; p++ {
					bp := b[p*n+j : p*n+j+4 : p*n+j+4]
					b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
					av := a0[p]
					s00 += av * b0
					s01 += av * b1
					s02 += av * b2
					s03 += av * b3
					av = a1[p]
					s10 += av * b0
					s11 += av * b1
					s12 += av * b2
					s13 += av * b3
				}
				if bias != nil {
					b0, b1, b2, b3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
					s00 += b0
					s01 += b1
					s02 += b2
					s03 += b3
					s10 += b0
					s11 += b1
					s12 += b2
					s13 += b3
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
				c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
			}
			for ; j < je; j++ {
				var s0, s1 float32
				for p := 0; p < k; p++ {
					bv := b[p*n+j]
					s0 += a0[p] * bv
					s1 += a1[p] * bv
				}
				if bias != nil {
					bv := bias[j]
					s0 += bv
					s1 += bv
				}
				c0[j], c1[j] = s0, s1
			}
		}
		for ; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			crow := dst[i*n : (i+1)*n]
			j := jb
			for ; j+4 <= je; j += 4 {
				var s0, s1, s2, s3 float32
				for p := 0; p < k; p++ {
					av := arow[p]
					bp := b[p*n+j : p*n+j+4 : p*n+j+4]
					s0 += av * bp[0]
					s1 += av * bp[1]
					s2 += av * bp[2]
					s3 += av * bp[3]
				}
				if bias != nil {
					s0 += bias[j]
					s1 += bias[j+1]
					s2 += bias[j+2]
					s3 += bias[j+3]
				}
				crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
			}
			for ; j < je; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += arow[p] * b[p*n+j]
				}
				if bias != nil {
					s += bias[j]
				}
				crow[j] = s
			}
		}
	}
}

// MatMulT1 computes C = Aᵀ x B for A[k,m], B[k,n] -> C[m,n], used in
// dense-layer weight gradients. Work splits across output rows; each
// element still accumulates over p in ascending order, so the result
// is identical to the sequential kernel.
func MatMulT1(a, b *Tensor) *Tensor {
	out := New(a.Shape[1], b.Shape[1])
	MatMulT1Into(out, a, b)
	return out
}

// MatMulT1Into computes dst = Aᵀ x B into an existing [m,n] tensor,
// overwriting its contents. Like MatMulInto it never skips zero
// operands, so NaN/Inf in either factor always propagates.
func MatMulT1Into(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT1Into dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT1Into dst %v, want [%d %d]", dst.Shape, m, n))
	}
	t0 := countGEMM(m, k, n)
	defer gemmDone(t0)
	if serialRows(m * k * n) {
		matmulT1Range(dst.Data, a.Data, b.Data, m, k, n, 0, m)
		return
	}
	runGEMM(opMatMulT1, dst.Data, a.Data, b.Data, nil, m, k, n)
}

// matmulT1Range computes C = Aᵀ·B output rows [lo, hi) with the same
// 2x4 micro-kernel as matmulRange; the two A values per step are
// adjacent (a[p*m+i], a[p*m+i+1]), so both operands stream forward.
func matmulT1Range(dst, a, b []float32, m, k, n, lo, hi int) {
	for jb := 0; jb < n; jb += gemmNB {
		je := jb + gemmNB
		if je > n {
			je = n
		}
		i := lo
		for ; i+2 <= hi; i += 2 {
			c0 := dst[i*n : (i+1)*n]
			c1 := dst[(i+1)*n : (i+2)*n]
			j := jb
			for ; j+4 <= je; j += 4 {
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				for p := 0; p < k; p++ {
					ap := a[p*m+i : p*m+i+2 : p*m+i+2]
					bp := b[p*n+j : p*n+j+4 : p*n+j+4]
					b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
					av := ap[0]
					s00 += av * b0
					s01 += av * b1
					s02 += av * b2
					s03 += av * b3
					av = ap[1]
					s10 += av * b0
					s11 += av * b1
					s12 += av * b2
					s13 += av * b3
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
				c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
			}
			for ; j < je; j++ {
				var s0, s1 float32
				for p := 0; p < k; p++ {
					bv := b[p*n+j]
					s0 += a[p*m+i] * bv
					s1 += a[p*m+i+1] * bv
				}
				c0[j], c1[j] = s0, s1
			}
		}
		for ; i < hi; i++ {
			crow := dst[i*n : (i+1)*n]
			j := jb
			for ; j+4 <= je; j += 4 {
				var s0, s1, s2, s3 float32
				for p := 0; p < k; p++ {
					av := a[p*m+i]
					bp := b[p*n+j : p*n+j+4 : p*n+j+4]
					s0 += av * bp[0]
					s1 += av * bp[1]
					s2 += av * bp[2]
					s3 += av * bp[3]
				}
				crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
			}
			for ; j < je; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[p*m+i] * b[p*n+j]
				}
				crow[j] = s
			}
		}
	}
}

// MatMulT2 computes C = A x Bᵀ for A[m,k], B[n,k] -> C[m,n], used in
// dense-layer input gradients and the im2col convolution forward.
func MatMulT2(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[0])
	MatMulT2Into(out, a, b)
	return out
}

// MatMulT2Into computes dst = A x Bᵀ into an existing [m,n] tensor,
// overwriting its contents.
func MatMulT2Into(dst, a, b *Tensor) {
	matmulT2Bias(dst, a, b, nil)
}

// MatMulT2BiasInto computes dst = A x Bᵀ, then adds bias[n] to every
// row in the store epilogue — bit-identical to MatMulT2Into followed by
// AddRowVector, one pass over dst cheaper. It is the convolution
// forward kernel: y = cols · Wᵀ + bias.
func MatMulT2BiasInto(dst, a, b, bias *Tensor) {
	if bias.Dims() != 1 || bias.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulT2BiasInto bias %v, want [%d]", bias.Shape, b.Shape[0]))
	}
	matmulT2Bias(dst, a, b, bias.Data)
}

func matmulT2Bias(dst, a, b *Tensor, bias []float32) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT2Into dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT2Into dst %v, want [%d %d]", dst.Shape, m, n))
	}
	t0 := countGEMM(m, k, n)
	defer gemmDone(t0)
	if serialRows(m * k * n) {
		matmulT2Range(dst.Data, a.Data, b.Data, bias, k, n, 0, m)
		return
	}
	runGEMM(opMatMulT2, dst.Data, a.Data, b.Data, bias, m, k, n)
}

// matmulT2Range computes C = A·Bᵀ output rows [lo, hi) as four
// simultaneous dot products: one A row against four contiguous B rows,
// which breaks the serial dependency chain of the plain dot-product
// form while both operands stream forward over p.
func matmulT2Range(dst, a, b, bias []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		crow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			br0 := b[j*k : (j+1)*k]
			br1 := b[(j+1)*k : (j+2)*k]
			br2 := b[(j+2)*k : (j+3)*k]
			br3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for p, av := range arow {
				s0 += av * br0[p]
				s1 += av * br1[p]
				s2 += av * br2[p]
				s3 += av * br3[p]
			}
			if bias != nil {
				s0 += bias[j]
				s1 += bias[j+1]
				s2 += bias[j+2]
				s3 += bias[j+3]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j+2 <= n; j += 2 {
			br0 := b[j*k : (j+1)*k]
			br1 := b[(j+1)*k : (j+2)*k]
			var s0, s1 float32
			for p, av := range arow {
				s0 += av * br0[p]
				s1 += av * br1[p]
			}
			if bias != nil {
				s0 += bias[j]
				s1 += bias[j+1]
			}
			crow[j], crow[j+1] = s0, s1
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			if bias != nil {
				s += bias[j]
			}
			crow[j] = s
		}
	}
}
