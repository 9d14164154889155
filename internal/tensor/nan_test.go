package tensor

import (
	"math"
	"testing"
)

// The GEMM kernels used to skip zero entries of the left operand as a
// fast path. That optimization is wrong under IEEE 754: 0·NaN and 0·Inf
// are NaN, so skipping masked a poisoned operand and let a diverged
// model keep "training" on garbage. These regressions pin the fix.

func nan32() float32 { return float32(math.NaN()) }

func isNaN32(v float32) bool { return v != v }

func TestMatMulPropagatesNaNThroughZero(t *testing.T) {
	// a has a zero row where b carries NaN columns: with the zero-skip,
	// the NaN never reached the output.
	a := FromSlice([]float32{0, 0, 1, 2}, 2, 2)
	b := FromSlice([]float32{nan32(), 1, 3, 4}, 2, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	if !isNaN32(c.Data[0]) {
		t.Fatalf("0·NaN lost: row 0 = %v", c.Data[:2])
	}
	// The unpoisoned entries stay finite.
	if isNaN32(c.Data[3]) {
		t.Fatalf("NaN leaked into clean column: %v", c.Data)
	}
}

func TestMatMulPropagatesInfThroughZero(t *testing.T) {
	inf := float32(math.Inf(1))
	a := FromSlice([]float32{0, 1, 0, 2}, 2, 2)
	b := FromSlice([]float32{inf, 0, 1, 1}, 2, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	// 0·Inf + 1·1 = NaN + 1 = NaN.
	if !isNaN32(c.Data[0]) || !isNaN32(c.Data[2]) {
		t.Fatalf("0·Inf must poison the column: %v", c.Data)
	}
}

func TestMatMulT1PropagatesNaNThroughZero(t *testing.T) {
	// MatMulT1Into(c, a, b) is c = aᵀ·b; a zero in aᵀ's row meets a NaN in b.
	a := FromSlice([]float32{0, 1, nan32(), 2}, 2, 2)
	b := FromSlice([]float32{nan32(), 1, 1, 1}, 2, 2)
	c := New(2, 2)
	MatMulT1Into(c, a, b)
	// c[0,0] = a[0,0]·b[0,0] + a[1,0]·b[1,0] = 0·NaN + NaN·1.
	if !isNaN32(c.Data[0]) {
		t.Fatalf("T1 zero-skip masked NaN: %v", c.Data)
	}
}

func TestMatMulT2PropagatesNaNThroughZero(t *testing.T) {
	a := FromSlice([]float32{0, 1, 2, 3}, 2, 2)
	b := FromSlice([]float32{nan32(), 0, 0, 1}, 2, 2)
	c := New(2, 2)
	MatMulT2Into(c, a, b)
	// c[0,0] = 0·NaN + 1·0 = NaN.
	if !isNaN32(c.Data[0]) {
		t.Fatalf("T2 lost 0·NaN: %v", c.Data)
	}
}

// TestAbsMaxLanesMatchLoop holds AbsMax (the AVX2 lanes of
// gemm_amd64.go on a host with AVX2, else the loop itself) to absMaxGo
// bit for bit: lengths 0 to three blocks of sixteen + 1, NaN, ±Inf, ±0,
// denormals, the quant grid's ±126.5 and ±127.5, and ±MaxFloat32 at
// every position, with +Inf canaries past the end, which an over-read
// would return.
func TestAbsMaxLanesMatchLoop(t *testing.T) {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		126.5, -126.5, 127.5, -127.5, math.MaxFloat32, -math.MaxFloat32,
	}
	r := NewRNG(4)
	for n := 0; n <= 3*16+1; n++ {
		for p := 0; p <= n; p++ {
			for _, sp := range specials {
				buf := RandNormal(r, 0, 3, n+16).Data
				for i := n; i < len(buf); i++ {
					buf[i] = float32(math.Inf(1))
				}
				d := buf[:n]
				if p < n {
					d[p] = sp
				}
				got, want := (&Tensor{Data: d}).AbsMax(), absMaxGo(d)
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("n=%d special %v at %d: AbsMax = %v, want %v", n, sp, p, got, want)
				}
			}
		}
		// Every element NaN: the max stays +0.
		d := make([]float32, n)
		for i := range d {
			d[i] = float32(math.NaN())
		}
		if got := (&Tensor{Data: d}).AbsMax(); math.Float32bits(got) != 0 {
			t.Fatalf("n=%d all NaN: AbsMax = %v, want +0", n, got)
		}
	}
}
