package nn

import (
	"math"
	"testing"

	"socflow/internal/tensor"
)

func init() {
	if tensor.HasAVX2() {
		tanhPaths = append(tanhPaths, tanhPath{"avx2", tanhIntoAVX2, tanhGradIntoAVX2})
	}
}

// TestTanhLanesReturnGuardedBlocks checks that tanh4AVX2 hands back a
// block with a guarded input at any lane position: it returns the
// block's index and leaves the block and everything after it unwritten.
func TestTanhLanesReturnGuardedBlocks(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("no AVX2")
	}
	const canary = float32(-12345)
	for _, g := range tanhGuarded {
		for p := range 4 {
			x := []float32{0.3, -2, 12, -0.001, 0.3, -2, 12, -0.001, 0.5, 0.5, 0.5, 0.5}
			x[4+p] = math.Float32frombits(g)
			dst := make([]float32, len(x))
			for i := range dst {
				dst[i] = canary
			}
			if i := tanh4AVX2(&dst[0], &x[0], len(x)); i != 4 {
				t.Fatalf("guarded %#x in lane %d: tanh4AVX2 returned %d, want 4", g, p, i)
			}
			for i := range dst {
				if written := dst[i] != canary; written != (i < 4) {
					t.Fatalf("guarded %#x in lane %d: dst[%d] = %v", g, p, i, dst[i])
				}
			}
		}
	}
}
