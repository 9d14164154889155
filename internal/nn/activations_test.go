package nn

import (
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
