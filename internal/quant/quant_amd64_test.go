package quant

import (
	"math"
	"testing"

	"socflow/internal/tensor"
)

// TestSGDKernelDrawTies hands sgd8AVX2 draws that equal their element's
// fraction, which a seeded stream almost never yields: u < x − ⌊x⌋ is
// false on a tie, so the weight rounds down, and a zero draw on an
// integral x keeps ⌊x⌋ (−0 becoming +0).
func TestSGDKernelDrawTies(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("no AVX2: the portable loop runs")
	}
	xs := []float32{3, 2.5, -2.5, float32(math.Copysign(0, -1)), 0.25, -0.75, 126.5, -127.5, 1e-3}
	for n := 1; n <= 3*laneBlock+1; n++ {
		row, u := make([]float32, n), make([]float64, (n+7)&^7)
		for i := range row {
			row[i] = xs[i%len(xs)]
			u[i] = float64(row[i]) - math.Floor(float64(row[i]))
		}
		want := make([]float32, n)
		for i, x := range row {
			r := math.Floor(float64(x))
			if u[i] < float64(x)-r {
				r++
			}
			want[i] = float32(clampInt8(r))
		}
		grad := make([]float32, n)
		done, _ := sgd8AVX2(&row[0], &grad[0], &u[0], n, 0, 1, 1, 1, 1, 127)
		if done != n {
			t.Fatalf("n=%d: stopped at %d", n, done)
		}
		if i := sameBits(row, want); i >= 0 {
			t.Fatalf("n=%d: element %d (x = %v) = %v, want %v", n, i, xs[i%len(xs)], row[i], want[i])
		}
	}
}
