package quant

import (
	"fmt"
	"math"
)

// INT8 GEMM: int8×int8 products accumulate in int32 and each output
// element is rescaled to float32 exactly once, the arithmetic a real
// NPU performs. The training path does not run it: the NPU replica
// reproduces INT8 training with fake-quantized float32 GEMMs (the
// rounding onto INT8 grids is what costs accuracy; speed comes from the
// cost model). This kernel is the integer rung of the benchmark ladder:
// what a direct int8 datapath costs on the host that runs it.

// Multiplier is the 8-bit product: how two int8 operands multiply into
// the int32 accumulator.
type Multiplier interface {
	Mul(a, b int8) int32
}

// Exact is the precise hardware integer multiplier.
type Exact struct{}

// Mul implements Multiplier.
func (Exact) Mul(a, b int8) int32 { return int32(a) * int32(b) }

// QuantizeSlice fills codes with the symmetric INT8 codes of src and
// returns the grid scale, the per-tensor activation quantization the
// INT8 GEMM consumes. A non-finite absmax — or any NaN element — poisons
// the result through a NaN scale: the GEMM's rescale multiplies every
// output by it, so the poison reaches every downstream value just as
// the float kernels propagate it.
func QuantizeSlice(codes []int8, src []float32) float32 {
	if len(codes) != len(src) {
		panic(fmt.Sprintf("quant: QuantizeSlice size mismatch %d vs %d", len(codes), len(src)))
	}
	var absMax float32
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > absMax {
			absMax = a
		}
	}
	s := scaleFor(absMax)
	if isNaN32(s) {
		return s
	}
	inv := 1 / s
	for i, v := range src {
		if isNaN32(v) {
			return nan32()
		}
		codes[i] = clampInt8(math.Round(float64(v * inv)))
	}
	return s
}

// Int8MatMul computes dst[m,n] ≈ deq(a)·deq(b) (+ bias): a is [m,k]
// with per-tensor scale sa, b is [k,n] with per-tensor scale sb (the
// dense-layer layout, where output columns cross every axis-0 channel
// so a single scale is the only one that factors out of the sum).
// Accumulation is pure int32 through mul; bias may be nil.
func Int8MatMul(dst []float32, a []int8, sa float32, b []int8, sb float32, bias []float32, m, k, n int, mul Multiplier) {
	if len(a) != m*k || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("quant: int8 GEMM size mismatch a=%d(%d) b=%d(%d) dst=%d(%d)",
			len(a), m*k, len(b), k*n, len(dst), m*n))
	}
	if _, ok := mul.(Exact); ok {
		int8MMExact(dst, a, sa, b, sb, bias, m, k, n)
		return
	}
	int8MMGeneric(dst, a, sa, b, sb, bias, m, k, n, mul)
}

// The two kernel bodies are structurally identical; the multiply is
// kept monomorphic in the exact path because an interface call per
// 8-bit product would cost more than the product.

func int8MMExact(dst []float32, a []int8, sa float32, b []int8, sb float32, bias []float32, m, k, n int) {
	scale := sa * sb
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		out := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			var acc int32
			for p, av := range ar {
				acc += int32(av) * int32(b[p*n+j])
			}
			v := float32(acc) * scale
			if bias != nil {
				v += bias[j]
			}
			out[j] = v
		}
	}
}

func int8MMGeneric(dst []float32, a []int8, sa float32, b []int8, sb float32, bias []float32, m, k, n int, mul Multiplier) {
	scale := sa * sb
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		out := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			var acc int32
			for p, av := range ar {
				acc += mul.Mul(av, b[p*n+j])
			}
			v := float32(acc) * scale
			if bias != nil {
				v += bias[j]
			}
			out[j] = v
		}
	}
}
