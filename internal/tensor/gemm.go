package tensor

import "fmt"

// Every GEMM entry point lowers to one kernel contract over output rows
// [lo, hi):
//
//	dst[i·n+j] = Σ_{p<k} a[i·ai + p·ap] · b[p·n+j]  (+ bias[j])
//
// with one float32 accumulator per element, p ascending, the product
// rounded before the sum, and no zero-operand skip (0·NaN must stay NaN
// so exploding-gradient corruption is never masked). MatMulInto is
// (ai, ap) = (k, 1), MatMulT1Into reads A[k,m] as (1, m), and
// MatMulT2Into transposes B[n,k] once per call into scratch from a free
// list and then runs as MatMulInto. Tiling happens over the OUTPUT only, so every
// result is bit-identical to the naive (i,j,p) triple loop (pinned by
// the golden hex-loss test). A GEMM runs on its calling goroutine:
// host parallelism lives one level up, where training groups, pipeline
// stages and mesh workers are the concurrent callers (DESIGN.md §8).
//
// Two kernels implement it. On amd64 hosts with AVX2 (a CPUID/XGETBV
// check at init; nothing else selects the path) gemm_amd64.s runs a 4×16
// tile in eight YMM accumulators, then an 8-column block, then a
// VMASKMOVPS-masked tail, with 1-row variants for the last m mod 4 rows
// and the bias folded into the store. Each lane multiplies, then adds
// (never FMA, whose single rounding would move every digest), in the
// scalar loop's p order. gemmRangeGo is the portable 2×4 kernel every
// other host runs; the tests hold both to the naive loops.

// gemmRange is the kernel contract above, run over rows [lo, hi): the
// AVX2 kernel where the CPU has it, gemmRangeGo everywhere else.
var gemmRange = gemmRangeGo

// transposeFree is MatMulT2Into's free list of Bᵀ scratch, reused by
// capacity. A GC empties a sync.Pool but not a channel, so a steady
// workload allocates one buffer per concurrent caller once, where a
// pool would reallocate after GCs. The channel's buffer bounds how many
// idle buffers are kept: 16 is twice the most goroutines any benchmark
// workload trains on at once (8 groups, or 8 mesh workers).
var transposeFree = make(chan []float32, 16)

// gemmShape validates a GEMM's operands before any kernel trusts them:
// A and B 2-D, inner dimensions equal, and dst (unless nil) [m,n]. ta
// says A is stored [k,m], tb that B is stored [n,k].
func gemmShape(name string, dst, a, b *Tensor, ta, tb bool) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v x %v", name, a.Shape, b.Shape))
	}
	m, k = a.Shape[0], a.Shape[1]
	if ta {
		m, k = k, m
	}
	k2, n := b.Shape[0], b.Shape[1]
	if tb {
		k2, n = n, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", name, a.Shape, b.Shape))
	}
	if dst != nil && (dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n) {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d %d]", name, dst.Shape, m, n))
	}
	return m, k, n
}

// gemmInto validates, then computes dst = op(A)·op(B) (+ bias). A nil
// bias means no bias epilogue.
func gemmInto(name string, dst, a, b, bias *Tensor, ta, tb bool) {
	m, k, n := gemmShape(name, dst, a, b, ta, tb)
	var bv []float32
	if bias != nil {
		if bias.Dims() != 1 || bias.Shape[0] != n {
			panic(fmt.Sprintf("tensor: %s bias %v, want [%d]", name, bias.Shape, n))
		}
		bv = bias.Data
	}
	ai, ap := k, 1
	if ta {
		ai, ap = 1, m
	}
	bd := b.Data
	if tb {
		bd = takeScratch(k * n)
		defer giveScratch(bd)
		transposeInto(bd, b.Data, n, k)
	}
	gemmRange(dst.Data, a.Data, bd, bv, ai, ap, k, n, 0, m)
}

// takeScratch returns a buffer of the given length from transposeFree,
// or a new one.
func takeScratch(size int) []float32 {
	select {
	case s := <-transposeFree:
		if cap(s) >= size {
			return s[:size]
		}
	default:
	}
	return make([]float32, size)
}

// giveScratch hands s back to transposeFree, or drops it when the list
// is full.
func giveScratch(s []float32) {
	select {
	case transposeFree <- s:
	default:
	}
}

// transposeInto writes src[rows,cols]ᵀ into dst[cols,rows].
func transposeInto(dst, src []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// gemmRangeGo is the portable kernel: 2×4 register tiles (eight
// independent accumulator chains; every loaded A and B value feeds
// several multiply-adds), with gemmDot for the edge elements.
func gemmRangeGo(dst, a, b, bias []float32, ai, ap, k, n, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0, a1 := i*ai, (i+1)*ai
		c0 := dst[i*n : (i+1)*n]
		c1 := dst[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			for p, x0, x1, y := 0, a0, a1, j; p < k; p, x0, x1, y = p+1, x0+ap, x1+ap, y+n {
				bp := b[y : y+4 : y+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				av := a[x0]
				s00 += av * b0
				s01 += av * b1
				s02 += av * b2
				s03 += av * b3
				av = a[x1]
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
		for ; j < n; j++ {
			c0[j] = gemmDot(a, b, bias, a0, ap, k, n, j)
			c1[j] = gemmDot(a, b, bias, a1, ap, k, n, j)
		}
	}
	if i < hi {
		c := dst[i*n : (i+1)*n]
		for j := range c {
			c[j] = gemmDot(a, b, bias, i*ai, ap, k, n, j)
		}
	}
}

// gemmDot is one element of the contract: the A row starting at a0
// against column j of B.
func gemmDot(a, b, bias []float32, a0, ap, k, n, j int) float32 {
	var s float32
	for p := 0; p < k; p++ {
		s += a[a0+p*ap] * b[p*n+j]
	}
	if bias != nil {
		s += bias[j]
	}
	return s
}

// MatMulInto computes dst = A x B into an existing [m,n] tensor,
// overwriting its contents.
func MatMulInto(dst, a, b *Tensor) {
	gemmInto("MatMulInto", dst, a, b, nil, false, false)
}

// MatMulBiasInto computes dst = A x B, then adds bias[n] to every row
// in the store epilogue. The result is bit-identical to MatMulInto
// followed by AddRowVector — each element is fl(fl(Σ) + bias) — while
// saving one full pass over dst.
func MatMulBiasInto(dst, a, b, bias *Tensor) {
	gemmInto("MatMulBiasInto", dst, a, b, bias, false, false)
}

// MatMulT1Into computes dst = Aᵀ x B for A[k,m], B[k,n] into an
// existing [m,n] tensor, overwriting its contents; dense-layer weight
// gradients use it. Like MatMulInto it never skips zero
// operands, so NaN/Inf in either factor always propagates.
func MatMulT1Into(dst, a, b *Tensor) {
	gemmInto("MatMulT1Into", dst, a, b, nil, true, false)
}

// MatMulT2Into computes dst = A x Bᵀ for A[m,k], B[n,k] into an
// existing [m,n] tensor, overwriting its contents; dense-layer input
// gradients use it.
func MatMulT2Into(dst, a, b *Tensor) {
	gemmInto("MatMulT2Into", dst, a, b, nil, false, true)
}

// MatMulT2BiasInto computes dst = A x Bᵀ, then adds bias[n] to every
// row in the store epilogue — bit-identical to MatMulT2Into followed by
// AddRowVector, one pass over dst cheaper. It is the convolution
// forward kernel: y = cols · Wᵀ + bias.
func MatMulT2BiasInto(dst, a, b, bias *Tensor) {
	gemmInto("MatMulT2BiasInto", dst, a, b, bias, false, true)
}
