package quant

import (
	"math"
	"testing"

	"socflow/internal/tensor"
)

// refCode is the rounding fakeQuantRange used before gridCode, and
// still uses when 1/s overflows: the definition gridCode must match.
func refCode(y float32) float32 { return float32(clampInt8(math.Round(float64(y)))) }

// TestGridCodeMatchesRoundExhaustive checks gridCode against refCode on
// every float32 with 2^-2 <= |y| < 2^8 (both signs): every binade that
// holds a rounding boundary (±0.5 … ±126.5) or the clamp (±127.5). Below
// it both sides give 0 and above it ±127; those ranges, ±0, ±Inf,
// ±MaxFloat32, the denormals and 2^20 random bit patterns are checked
// too.
func TestGridCodeMatchesRoundExhaustive(t *testing.T) {
	check := func(bits uint32) {
		y := math.Float32frombits(bits)
		if y != y {
			return
		}
		if g, w := gridCode(y), refCode(y); math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("gridCode(%v [%#08x]) = %v, want %v", y, bits, g, w)
		}
	}
	lo, hi := math.Float32bits(0.25), math.Float32bits(256)
	for b := lo; b < hi; b++ {
		check(b)
		check(b | 1<<31)
	}
	r := tensor.NewRNG(1)
	for i := 0; i < 1<<20; i++ {
		check(uint32(r.Uint64()))
	}
	for _, b := range []uint32{0, 1, 0x007fffff, 0x00800000, 0x3e7fffff, math.Float32bits(256), 0x7f7fffff, 0x7f800000} {
		check(b)
		check(b | 1<<31)
	}
}

// TestFakeQuantizeMatchesReference holds fakeQuantRange, which
// FakeQuantizeInto and Requantize's per-channel path share, to the
// reference expression element by element, NaN and the overflowing-1/s
// grid included.
func TestFakeQuantizeMatchesReference(t *testing.T) {
	ref := func(src []float32, s float32) []float32 {
		out := make([]float32, len(src))
		inv := 1 / s
		for i, v := range src {
			if v != v {
				out[i] = v
				continue
			}
			out[i] = refCode(v*inv) * s
		}
		return out
	}
	r := tensor.NewRNG(3)
	for _, scale := range []float32{1e3, 1, 1e-3, 1e-30, 1e-38, 1e-40, 1e-44} {
		x := tensor.RandNormal(r, 0, 1, 1000)
		tensor.Scale(scale, x)
		x.Data[7] = float32(math.NaN())
		x.Data[8] = float32(math.Copysign(0, -1))
		x.Data[9] = 0
		for _, s := range []float32{scaleFor(x.AbsMax()), scaleFor(x.AbsMax() * 1.5), 1e-45} {
			got := make([]float32, len(x.Data))
			fakeQuantRange(got, x.Data, s)
			want := ref(x.Data, s)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("scale %g s=%g: element %d (%v) = %v, want %v", scale, s, i, x.Data[i], got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkFakeQuantize times FakeQuantizeInto at the ladder's
// quant.fakequant_ns_per_elem shape ([256,144]); ns/op ÷ 36,864 is the
// rung.
func BenchmarkFakeQuantize(b *testing.B) {
	r := tensor.NewRNG(1)
	act, dst := tensor.RandNormal(r, 0, 1, 256, 144), tensor.New(256, 144)
	for i := 0; i < b.N; i++ {
		FakeQuantizeInto(dst, act)
	}
}
