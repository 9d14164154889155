package tensor

// The AVX2 path of the GEMM kernel contract (gemm.go). The check is
// hand-rolled because internal/cpu cannot be imported and the module
// has no dependencies.

func init() {
	if HasAVX2() {
		gemmRange, absMax = gemmRangeAVX2, absMaxAVX2
	}
}

// HasAVX2 reports whether both the CPU and the OS support AVX2: CPUID
// leaf 1 sets OSXSAVE and AVX, XCR0 has the XMM and YMM state bits the
// OS saves on a context switch, and CPUID leaf 7 sets AVX2. It is the
// one check behind every AVX2 kernel of the module: this package's
// GEMM and abs-max, nn's tanh lanes and quant's NPU emulation.
func HasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// gemmRangeAVX2 runs rows [lo, hi) in bands of four, then one at a
// time. The assembly addresses memory through raw pointers, so the
// highest element of dst, a, b and bias that any of its calls touches
// is bounds-checked here first: every stride is non-negative and every
// call starts at an in-range element, so no call leaves a slice.
func gemmRangeAVX2(dst, a, b, bias []float32, ai, ap, k, n, lo, hi int) {
	if k == 0 || n == 0 || lo >= hi {
		gemmRangeGo(dst, a, b, bias, ai, ap, k, n, lo, hi) // no products: zeros, or the bias
		return
	}
	_ = dst[hi*n-1]
	_ = a[(hi-1)*ai+(k-1)*ap]
	_ = b[k*n-1]
	var pb *float32
	if bias != nil {
		_ = bias[n-1]
		pb = &bias[0]
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		gemm4AVX2(&dst[i*n], &a[i*ai], &b[0], pb, ai, ap, k, n)
	}
	for ; i < hi; i++ {
		gemm1AVX2(&dst[i*n], &a[i*ai], &b[0], pb, ap, k, n)
	}
}

// absMaxAVX2 is Tensor.AbsMax's lane path.
func absMaxAVX2(d []float32) float32 {
	if len(d) == 0 {
		return 0
	}
	return absMax8AVX2(&d[0], len(d))
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0.
func xgetbv0() (eax uint32)

// gemm4AVX2 computes four rows of the contract, all n columns: dst and
// a point at the band's first row, b and bias (nil: none) at column 0.
// k and n are at least 1.
//
//go:noescape
func gemm4AVX2(dst, a, b, bias *float32, ai, ap, k, n int)

// gemm1AVX2 computes one row of the contract, all n columns.
//
//go:noescape
func gemm1AVX2(dst, a, b, bias *float32, ap, k, n int)

// absMax8AVX2 returns max(|x[i]|) over i < n, skipping NaN, for n >= 1.
//
//go:noescape
func absMax8AVX2(x *float32, n int) float32
