package quant

import (
	"math"
	"slices"
	"testing"

	"socflow/internal/tensor"
)

func randCodes(r *tensor.RNG, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(int(r.Float64()*255) - 127)
	}
	return out
}

// halfMul is a non-Exact Multiplier, so Int8MatMul must take its
// generic kernel; halving every product makes a silent fall-through to
// the exact kernel visible.
type halfMul struct{}

func (halfMul) Mul(a, b int8) int32 { return int32(a) * int32(b) / 2 }

func TestInt8MatMulMatchesReference(t *testing.T) {
	r := tensor.NewRNG(22)
	const m, k, n = 4, 9, 6
	a := randCodes(r, m*k)
	b := randCodes(r, k*n)
	var outs [][]float32
	for _, mul := range []Multiplier{Exact{}, halfMul{}} {
		want := make([]float32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc int32
				for p := 0; p < k; p++ {
					acc += mul.Mul(a[i*k+p], b[p*n+j])
				}
				want[i*n+j] = float32(acc) * (0.03 * 0.05)
			}
		}
		got := make([]float32, m*n)
		Int8MatMul(got, a, 0.03, b, 0.05, nil, m, k, n, mul)
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("mul %T: dst[%d] = %v, want %v", mul, i, got[i], want[i])
			}
		}
		outs = append(outs, got)
	}
	if slices.Equal(outs[0], outs[1]) {
		t.Fatal("generic multiplier produced the exact kernel's output: the generic branch did not run")
	}
}

func TestQuantizeSliceRoundTrip(t *testing.T) {
	src := []float32{-2, -1, 0, 0.5, 1, 2}
	codes := make([]int8, len(src))
	s := QuantizeSlice(codes, src)
	for i, v := range src {
		got := float32(codes[i]) * s
		if d := got - v; d > s/2+1e-6 || d < -s/2-1e-6 {
			t.Fatalf("code %d dequantizes to %v, want within half a step of %v", codes[i], got, v)
		}
	}
	if codes[0] != -127 {
		t.Fatalf("absmax element must map to -127, got %d", codes[0])
	}
}

func TestQuantizeSlicePoisonsOnNaN(t *testing.T) {
	src := []float32{1, float32(math.NaN()), 2}
	codes := make([]int8, len(src))
	if s := QuantizeSlice(codes, src); !isNaN32(s) {
		t.Fatalf("NaN element produced finite scale %v", s)
	}
	// The NaN scale poisons every GEMM output through the rescale.
	dst := make([]float32, 1)
	Int8MatMul(dst, []int8{1, 1, 1}, nan32(), []int8{1, 1, 1}, 1, nil, 1, 3, 1, Exact{})
	if !isNaN32(dst[0]) {
		t.Fatalf("NaN activation scale did not poison the GEMM output: %v", dst[0])
	}
}

// TestQuantizeRowsPerChannelScales checks per-output-channel weight
// quantization: each row of a weight tensor lands on its own symmetric
// grid (step absmax/127 of that row), with the row's absmax at code 127.
// The absmaxes are picked so the steps (1 and 4) are exact in float32.
func TestQuantizeRowsPerChannelScales(t *testing.T) {
	w := tensor.FromSlice([]float32{127, -63.5, 10.25, 0, 508, -254, 100, 3}, 2, 4)
	QuantizeStochasticPerChannelInPlace(w, tensor.NewRNG(5))
	steps := []float32{1, 4}
	for c, step := range steps {
		row := w.Data[c*4 : (c+1)*4]
		if row[0] != 127*step {
			t.Fatalf("row %d: absmax dequantizes to %v, want %v", c, row[0], 127*step)
		}
		for i, v := range row {
			code := v / step
			if code != float32(math.Round(float64(code))) || code > 127 || code < -127 {
				t.Fatalf("row %d[%d] = %v is off its grid (step %v)", c, i, v, step)
			}
		}
	}
	// Row 0 keeps a resolution row 1's coarser grid cannot hold: 10.25
	// rounds to 10 or 11 on step 1, where step 4 would give 8 or 12.
	if v := w.Data[2]; v != 10 && v != 11 {
		t.Fatalf("row 0 lost its own grid: 10.25 became %v", v)
	}
}
