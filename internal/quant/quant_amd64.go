package quant

import (
	"math"

	"socflow/internal/tensor"
)

// The AVX2 path of the NPU emulation: fakeQuant8AVX2 runs
// fakeQuantRange's main branch and sgd8AVX2 Int8SGD's update in eight
// float32 lanes, each repeating the portable loop's operations in its
// order, so every output has its bits (DESIGN.md §14).

func init() {
	if tensor.HasAVX2() {
		fakeQuantGrid, stepRow = fakeQuantGridAVX2, stepRowAVX2
	}
}

func fakeQuantGridAVX2(dst, src []float32, s, inv float32) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	fakeQuant8AVX2(&dst[0], &src[0], len(src), s, inv)
}

// stepRowAVX2 draws up to 64 uniforms at a time, in stream order, into
// a buffer on its own stack (each concurrently stepping optimizer has
// its own, and none is allocated) and hands them to sgd8AVX2 with the
// elements they belong to. A block with a NaN x stops the kernel: the
// stream is rewound to that block, which stepRowGo then runs, its NaN
// elements drawing nothing, so the stream is consumed exactly as by the
// portable loop. A row whose scale is NaN (every x NaN) or whose
// gradient grid is NaN or has an overflowing 1/gs (fakeQuantRange's
// scalar branches) runs in stepRowGo whole.
func stepRowAVX2(row, grad []float32, u update, o *Int8SGD) (regrid bool) {
	if isNaN32(u.scale) || !(u.ginv <= math.MaxFloat32) {
		return stepRowGo(row, grad, u, o)
	}
	grad = grad[:len(row)]
	var draws [64]float64
	for len(row) > 0 {
		n := min(len(row), len(draws))
		saved := *o.RNG
		for i := range draws[:n] {
			draws[i] = o.RNG.Float64()
		}
		done, rg := sgd8AVX2(&row[0], &grad[0], &draws[0], n, u.lr, u.gs, u.ginv, u.scale, u.inv, u.limit)
		regrid = regrid || rg
		if done < n {
			*o.RNG = saved
			for range done {
				o.RNG.Uint64()
			}
			end := min(done+8, n)
			regrid = stepRowGo(row[done:end], grad[done:end], u, o) || regrid
			done = end
		}
		row, grad = row[done:], grad[done:]
	}
	return regrid
}

// fakeQuant8AVX2 sets dst[i] = gridCode(src[i]·inv)·s, or src[i] where
// it is NaN, for i < n (n >= 1).
//
//go:noescape
func fakeQuant8AVX2(dst, src *float32, n int, s, inv float32)

// sgd8AVX2 runs stepRowGo's update on row[i] for i < n (n >= 1) with
// u[i] as element i's draw; u holds at least n rounded up to eight
// values. It returns n, or the start of the first block of eight with a
// NaN x, which it leaves unwritten with the rest.
//
//go:noescape
func sgd8AVX2(row, grad *float32, u *float64, n int, lr, gs, ginv, scale, inv, limit float32) (done int, regrid bool)
