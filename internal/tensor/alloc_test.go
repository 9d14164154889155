package tensor

import (
	"testing"
)

// TestIntoKernelsDoNotAllocate pins the arena contract at the kernel
// layer: once destination buffers exist, the *Into kernels run without
// touching the allocator.
func TestIntoKernelsDoNotAllocate(t *testing.T) {
	rng := NewRNG(3)
	a := RandNormal(rng, 0, 1, 8, 16)
	b := RandNormal(rng, 0, 1, 16, 12)
	bt := RandNormal(rng, 0, 1, 12, 16)
	at := RandNormal(rng, 0, 1, 16, 8)
	dst := New(8, 12)
	dstT1 := New(8, 12)
	dstT2 := New(8, 12)
	bias := RandNormal(rng, 0, 1, 12)
	rowSum := New(16)
	soft := New(8, 12)

	x := RandNormal(rng, 0, 1, 2, 3, 8, 8)
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	oh, ow := p.OutSize(8, 8)
	cols := New(2*oh*ow, 3*3*3)
	img := New(2, 3, 8, 8)
	pool := ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}
	ph, pw := pool.OutSize(8, 8)
	pooled := New(2, 3, ph, pw)
	arg := make([]int, 2*3*ph*pw)
	dx := New(2, 3, 8, 8)

	checks := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { MatMulInto(dst, a, b) }},
		{"MatMulT1Into", func() { MatMulT1Into(dstT1, at, b) }},
		{"MatMulT2Into", func() { MatMulT2Into(dstT2, a, bt) }},
		{"MatMulBiasInto", func() { MatMulBiasInto(dst, a, b, bias) }},
		{"MatMulT2BiasInto", func() { MatMulT2BiasInto(dstT2, a, bt, bias) }},
		{"SumRowsInto", func() { SumRowsInto(rowSum, a) }},
		{"SoftmaxInto", func() { SoftmaxInto(soft, dst) }},
		{"AddInto", func() { AddInto(dst, dst, dst) }},
		{"Im2ColInto", func() { Im2ColInto(cols, x, p) }},
		{"Col2ImInto", func() { Col2ImInto(img, cols, p) }},
		{"MaxPoolInto", func() { MaxPoolInto(pooled, arg, x, pool) }},
		{"MaxPoolBackwardInto", func() { MaxPoolBackwardInto(dx, pooled, arg) }},
		{"AvgPoolInto", func() { AvgPoolInto(pooled, x, pool) }},
		{"AvgPoolBackwardInto", func() { AvgPoolBackwardInto(dx, pooled, pool) }},
	}
	for _, c := range checks {
		c.fn() // warm MatMulT2's scratch list
		if allocs := testing.AllocsPerRun(10, c.fn); allocs > 0 {
			t.Errorf("%s allocates %v objects per call, want 0", c.name, allocs)
		}
	}
}

// TestArenaReusesBuffers checks the arena round-trip: a released tensor
// comes back (zeroed) instead of a fresh allocation.
func TestArenaReusesBuffers(t *testing.T) {
	a := NewArena()
	tt := a.GetTensor(4, 5)
	tt.Fill(7)
	a.ReleaseTensor(tt)
	got := a.GetTensor(5, 4) // same element count, different shape
	if got != tt {
		t.Fatal("arena did not reuse the released tensor")
	}
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("reused tensor not zeroed at %d: %v", i, v)
		}
	}
	if got.Shape[0] != 5 || got.Shape[1] != 4 {
		t.Fatalf("reused tensor shape = %v", got.Shape)
	}

	// Spread an existing shape slice, as hot callers do — a literal
	// argument list would allocate the variadic slice at the call site.
	shape := []int{4, 5}
	if steady := testing.AllocsPerRun(10, func() {
		s := a.GetTensor(shape...)
		a.ReleaseTensor(s)
	}); steady != 0 {
		t.Fatalf("steady-state Get/Release allocates %v objects", steady)
	}
}

// TestEnsureReusesByCapacity pins the persistent-buffer contract:
// shrinking or equal-size reshapes reuse storage, growth allocates.
func TestEnsureReusesByCapacity(t *testing.T) {
	buf := Ensure(nil, 4, 4)
	if buf == nil || len(buf.Data) != 16 {
		t.Fatal("Ensure(nil) must allocate")
	}
	same := Ensure(buf, 2, 8)
	if same != buf {
		t.Fatal("equal-size reshape must reuse")
	}
	small := Ensure(buf, 3, 2)
	if small != buf || len(small.Data) != 6 {
		t.Fatalf("shrink must reslice in place: %v", small.Shape)
	}
	grown := Ensure(buf, 8, 8)
	if grown == buf {
		t.Fatal("growth must allocate a fresh tensor")
	}
}
