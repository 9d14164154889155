package nn

import (
	"math"

	"socflow/internal/tensor"
)

// The AVX2 path of the Tanh layer: tanh4AVX2 runs tanh32 in four
// float64 lanes and tanhGrad8AVX2 the backward in eight float32 lanes,
// each repeating the scalar code's operations in its order, so every
// output has the scalar loop's bits (DESIGN.md §14).

func init() {
	if tensor.HasAVX2() {
		tanhInto, tanhGradInto = tanhIntoAVX2, tanhGradIntoAVX2
	}
}

// tanhIntoAVX2 runs the whole blocks of four through tanh4AVX2 and
// what it hands back through tanh32: a block with a lane near a float32
// rounding midpoint, and the len(x) mod 4 tail.
func tanhIntoAVX2(dst, x []float32) {
	dst = dst[:len(x)]
	for len(x) >= 4 {
		n := len(x) &^ 3
		i := tanh4AVX2(&dst[0], &x[0], n)
		if i < n {
			tanhIntoGo(dst[i:i+4], x[i:i+4])
			i += 4
		}
		dst, x = dst[i:], x[i:]
	}
	tanhIntoGo(dst, x)
}

// tanhGradIntoAVX2 runs the whole blocks of eight through
// tanhGrad8AVX2 and the tail through the Go loop.
func tanhGradIntoAVX2(dst, g, y []float32) {
	n := len(g) &^ 7
	if n > 0 {
		_, _ = dst[n-1], y[n-1]
		tanhGrad8AVX2(&dst[0], &g[0], &y[0], n)
	}
	tanhGradIntoGo(dst[n:], g[n:], y[n:])
}

// tanhK holds tanh4AVX2's constants, each repeated in four lanes, in
// the order of tanh_amd64.s's K_ names. The floats are spelled as in
// tanh32 and math.Tanh, so each lane gets the float64 that the scalar
// code rounds the constant to.
var tanhK = func() (k [23][4]float64) {
	for i, c := range [...]float64{
		math.Float64frombits(1<<63 - 1), // K_ABS
		math.Float64frombits(1 << 63),   // K_SIGN
		0.625,                           // K_LO: math.Tanh's branch point
		9.011,                           // K_HI: ±1 from here on
		64 / math.Ln2,                   // K_SCALE
		0x1.8p52,                        // K_ROUND
		ln2by32Hi,                       // K_LN2HI
		ln2by32Lo,                       // K_LN2LO
		1.0 / 120,                       // K_C5
		1.0 / 24,                        // K_C4
		1.0 / 6,                         // K_C3
		1.0 / 2,                         // K_C2
		1,                               // K_ONE
		2,                               // K_TWO
		// math.Tanh's tanhP and tanhQ: K_P0, K_P1, K_P2, K_Q0, K_Q1, K_Q2.
		-9.64399179425052238628e-1,
		-9.92877231001918586564e1,
		-1.61468768441708447952e3,
		1.12811678491632931402e2,
		2.23548839060100448583e3,
		4.84406305325125486048e3,
		math.Float64frombits(1<<29 - 1),     // K_LOW29: y's bits below float32 precision
		math.Float64frombits(1<<28 - 1<<12), // K_BAND: the guard band's low edge
		0,                                   // K_ZERO
	} {
		k[i] = [4]float64{c, c, c, c}
	}
	return k
}()

// tanh4AVX2 sets dst[i] = tanh32(x[i]) for i < n, a multiple of four,
// one block of four at a time. It returns n, or the index of the first
// block in which a lane's fast-path value lies in tanh32's guard band;
// that block and the rest are left unwritten.
//
//go:noescape
func tanh4AVX2(dst, x *float32, n int) int

// tanhGrad8AVX2 sets dst[i] = grad[i]·(1 − y[i]·y[i]) for i < n, a
// multiple of eight.
//
//go:noescape
func tanhGrad8AVX2(dst, grad, y *float32, n int)
