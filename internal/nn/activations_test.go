package nn

import (
	"flag"
	"math"
	"runtime"
	"sync"
	"testing"

	"socflow/internal/tensor"
)

// TestTanhMatchesMathTanhExhaustive holds tanh32 to its contract,
// float32(math.Tanh(float64(x))) bit for bit, on every float32 pattern
// with 0.625 ≤ |x| ≤ 44.5 (both signs): the inputs tanh32 answers
// itself. Above 44.0148 math.Tanh returns ±1 by its own code, and below
// 0.625 tanh32 delegates, so those are sampled, every 4099th pattern.
func TestTanhMatchesMathTanhExhaustive(t *testing.T) {
	// check reports x unless tanh32 matches bit for bit (any NaN for NaN).
	check := func(x float32) bool {
		got, want := tanh32(x), float32(math.Tanh(float64(x)))
		if math.Float32bits(got) == math.Float32bits(want) || got != got && want != want {
			return true
		}
		t.Errorf("tanh32(%x) = %x, math.Tanh gives %x", x, got, want)
		return false
	}
	lo, hi := math.Float32bits(0.625), math.Float32bits(44.5)
	workers := uint32(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b, bad := lo+w, 0; b <= hi && bad < 5; b += workers {
				for _, bits := range [2]uint32{b, b | 1<<31} {
					if !check(math.Float32frombits(bits)) {
						bad++
					}
				}
			}
		}()
	}
	wg.Wait()
	for b := uint32(0); b < lo; b += 4099 {
		check(math.Float32frombits(b))
		check(math.Float32frombits(b | 1<<31))
	}
	nan := float32(math.NaN())
	for _, x := range []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), nan, 45, -1e30} {
		check(x)
	}
	if got := tanh32(nan); got == got {
		t.Errorf("tanh32(NaN) = %x, want NaN", got)
	}
}

// tanhPath is one implementation of the Tanh layer's two kernels.
type tanhPath struct {
	name string
	fwd  func(dst, x []float32)
	grad func(dst, g, y []float32)
}

// tanhPaths holds the portable loops, which every host runs with the
// AVX2 switch forced off, and on AVX2 hosts the lanes too
// (tanh_amd64_test.go).
var tanhPaths = []tanhPath{{"go", tanhIntoGo, tanhGradIntoGo}}

// tanhWant is tanh32's contract, float32(math.Tanh(float64(x))).
func tanhWant(x float32) float32 { return float32(math.Tanh(float64(x))) }

// sameTanh reports whether got is want bit for bit, or both are NaN.
func sameTanh(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || got != got && want != want
}

// tanhGuarded are inputs whose fast-path value lies within the guard
// band of a float32 rounding midpoint, so the lanes hand their block
// back to tanh32 (TestTanhLanesReturnGuardedBlocks checks that).
var tanhGuarded = []uint32{0x3f20b67f, 0x4021572d, 0x40f13cfa, 0xbfc0522a}

// TestTanhLanesMatchMathTanh holds each path of Tanh.Forward to tanh32's
// contract on every 4099th float32 pattern, the specials (±0, ±Inf,
// NaNs, subnormals, both sides of each branch point) and a block with a
// guarded input at each lane position, at slice offsets 0–3 and tail
// lengths 0–3, and checks that no path writes past its output.
// TestTanhLanesMatchMathTanhExhaustive covers [2^-12, 9.011] whole.
func TestTanhLanesMatchMathTanh(t *testing.T) {
	var xs []float32
	for b := uint64(0); b < 1<<32; b += 4099 {
		xs = append(xs, math.Float32frombits(uint32(b)))
	}
	specials := []uint32{
		0, 1 << 31, 0x7f800000, 0xff800000, 0x7fc00000, 0xffc00000, 0x7f800001, 0x7fa00000, 0xffffffff,
		1, 0x80000001, 0x007fffff, 0x807fffff, 0x00800000, 0x39800000, 0xb9800000, // subnormals, ±2^-12
	}
	for _, c := range []float32{0.625, 9.011, 44.5, 1} {
		b := math.Float32bits(c)
		specials = append(specials, b-1, b, b+1, b-1|1<<31, b|1<<31, b+1|1<<31)
	}
	for _, b := range specials {
		xs = append(xs, math.Float32frombits(b))
	}
	// A guarded input at each lane position of a block, among ordinary
	// values of each branch.
	for _, g := range tanhGuarded {
		for p := range 4 {
			block := [4]float32{0.3, -2, 12, -0.001}
			block[p] = math.Float32frombits(g)
			xs = append(xs, block[:]...)
		}
	}
	const canary = float32(-12345)
	for _, path := range tanhPaths {
		dst := make([]float32, len(xs))
		path.fwd(dst, xs)
		bad := 0
		for i, x := range xs {
			if !sameTanh(dst[i], tanhWant(x)) && bad < 5 {
				t.Errorf("%s: tanh(%#x) = %#x, math.Tanh gives %#x", path.name,
					math.Float32bits(x), math.Float32bits(dst[i]), math.Float32bits(tanhWant(x)))
				bad++
			}
		}
		// The specials and guarded blocks again, at every offset and
		// tail length, with a canary after the output.
		window := xs[len(xs)-len(specials)-16*len(tanhGuarded):]
		for off := range 4 {
			for extra := range 4 {
				n := len(window)&^3 - 4 + extra
				x := append(make([]float32, off), window[:n]...)[off:]
				buf := make([]float32, off+n+1)
				buf[off+n] = canary
				path.fwd(buf[off:off+n], x)
				for i := range n {
					if !sameTanh(buf[off+i], tanhWant(x[i])) {
						t.Fatalf("%s, offset %d, length %d: tanh(%#x) = %#x, math.Tanh gives %#x",
							path.name, off, n, math.Float32bits(x[i]), math.Float32bits(buf[off+i]),
							math.Float32bits(tanhWant(x[i])))
					}
				}
				if buf[off+n] != canary {
					t.Fatalf("%s, offset %d, length %d: wrote past the output", path.name, off, n)
				}
			}
		}
	}
}

// TestTanhLanesMatchMathTanhExhaustive runs every float32 with
// 2^-12 ≤ |x| ≤ 9.011, both signs, through each path of Tanh.Forward:
// the whole range where the lanes compute math.Tanh's rational branch
// on inputs that do not round to x, and tanh32's fast path.
func TestTanhLanesMatchMathTanhExhaustive(t *testing.T) {
	lo, hi := uint64(math.Float32bits(0x1p-12)), uint64(math.Float32bits(9.011))
	sweepTanhPaths(t, lo, hi+1)
	sweepTanhPaths(t, lo|1<<31, hi+1|1<<31)
}

// sweepTanhPaths checks each path of Tanh.Forward against tanh32's
// contract on every float32 pattern in [lo, hi), in chunks spread over
// GOMAXPROCS goroutines; a chunk of 4093 leaves a tail of one.
func sweepTanhPaths(t *testing.T, lo, hi uint64) {
	const chunk = 4093
	workers := uint32(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, want, got := make([]float32, chunk), make([]float32, chunk), make([]float32, chunk)
			for start := lo + uint64(w)*chunk; start < hi; start += uint64(workers) * chunk {
				n := int(min(chunk, hi-start))
				for i := range n {
					x[i] = math.Float32frombits(uint32(start) + uint32(i))
					want[i] = tanhWant(x[i])
				}
				for _, path := range tanhPaths {
					path.fwd(got[:n], x[:n])
					for i := range n {
						if !sameTanh(got[i], want[i]) {
							t.Errorf("%s: tanh(%#x) = %#x, math.Tanh gives %#x", path.name,
								math.Float32bits(x[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// tanhAllPatterns turns on TestTanhLanesAllPatternsExhaustive, the
// sweep over all 2^32 float32 patterns (about 35 s on two cores):
//
//	go test -run TestTanhLanesAllPatternsExhaustive ./internal/nn -args -tanh.all
var tanhAllPatterns = flag.Bool("tanh.all", false, "sweep every float32 pattern through each tanh path")

// TestTanhLanesAllPatternsExhaustive is TestTanhLanesMatchMathTanhExhaustive
// over every float32 pattern, when -tanh.all is given.
func TestTanhLanesAllPatternsExhaustive(t *testing.T) {
	if !*tanhAllPatterns {
		t.Skip("the full 2^32 sweep runs with -tanh.all")
	}
	sweepTanhPaths(t, 0, 1<<32)
}

// TestTanhBackwardLanesBitIdentical holds each path of Tanh.Backward to
// the scalar loop bit for bit, NaN payloads included, on random values
// with NaNs, ±Inf, ±0, ±1 and subnormals injected into both operands,
// at every length 0–40 and slice offset 0–7, with a canary after
// the output.
func TestTanhBackwardLanesBitIdentical(t *testing.T) {
	rng := tensor.NewRNG(5)
	const size = 48
	g := tensor.RandNormal(rng, 0, 1, size).Data
	y := make([]float32, size) // uniform in [-1, 1), tanh's range
	for i := range y {
		y[i] = -1 + 2*rng.Float32()
	}
	specials := []uint32{0x7fc00000, 0xffc00001, 0x7f800000, 0xff800000, 1 << 31, 0, 0x3f800000, 0xbf800000, 1, 0x7fa00003}
	for i, b := range specials {
		g[3*i+1] = math.Float32frombits(b)
		y[(5*i+2)%size] = math.Float32frombits(specials[(i+3)%len(specials)])
	}
	// NaN times NaN: the payload that wins depends on operand order.
	g[40], y[40] = math.Float32frombits(0xffc00001), math.Float32frombits(0x7fa00003)
	g[41], y[41] = math.Float32frombits(0x7fa00005), math.Float32frombits(0xffc00007)
	const canary = float32(-12345)
	want := make([]float32, size)
	for _, path := range tanhPaths {
		for off := range 8 {
			for n := range 41 {
				gs, ys := g[off:off+n], y[off:off+n]
				tanhGradIntoGo(want[:n], gs, ys)
				buf := make([]float32, off+n+1)
				buf[off+n] = canary
				path.grad(buf[off:off+n], gs, ys)
				for i := range n {
					if math.Float32bits(buf[off+i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s, offset %d, length %d: %#x·(1 − %#x²) = %#x, the loop gives %#x",
							path.name, off, n, math.Float32bits(gs[i]), math.Float32bits(ys[i]),
							math.Float32bits(buf[off+i]), math.Float32bits(want[i]))
					}
				}
				if buf[off+n] != canary {
					t.Fatalf("%s, offset %d, length %d: wrote past the output", path.name, off, n)
				}
			}
		}
	}
}

// BenchmarkTanhForward times the layer on LeNet-5's first activation
// map at batch 16 with N(0,1) inputs, the benchmark ladder's
// nn.tanh_ns_per_elem.
func BenchmarkTanhForward(b *testing.B) {
	x := tensor.RandNormal(tensor.NewRNG(1), 0, 1, 16, 6, 8, 8)
	l := NewTanh()
	b.ResetTimer()
	for range b.N {
		l.Forward(x, true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Size()), "ns/elem")
}
