package tensor

import (
	"testing"

	"socflow/internal/parallel"
)

func bitEqual(t *testing.T, name string, a, b *Tensor) {
	t.Helper()
	if len(a.Data) != len(b.Data) {
		t.Fatalf("%s: length %d vs %d", name, len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, a.Data[i], b.Data[i])
		}
	}
}

// TestKernelsBitIdenticalAcrossWorkers checks the determinism contract
// where host parallelism lives: kernels run on their caller, so P
// concurrent callers — training groups, each on its own buffers — must
// each get byte-for-byte what a lone serial caller gets.
func TestKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := NewRNG(7)
	a := RandNormal(rng, 0, 1, 144, 128)
	b := RandNormal(rng, 0, 1, 128, 120)
	bt := RandNormal(rng, 0, 1, 120, 128)
	at1 := RandNormal(rng, 0, 1, 128, 144)
	x := RandNormal(rng, 0, 1, 4, 3, 14, 14)
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}
	big1 := RandNormal(rng, 0, 1, 1<<15)
	big2 := RandNormal(rng, 0, 1, 1<<15)
	grad := RandNormal(rng, 0, 1, 4, 3, 7, 7)
	pool := ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}

	type result struct {
		mm, t1, t2, cols, img, mp, mpb, ap, apb, add *Tensor
	}
	run := func() result {
		var r result
		r.mm, r.t1, r.t2 = New(144, 120), New(144, 120), New(144, 120)
		MatMulInto(r.mm, a, b)
		MatMulT1Into(r.t1, at1, b)
		MatMulT2Into(r.t2, a, bt)
		r.cols, r.img = New(4*14*14, 3*3*3), New(x.Shape...)
		Im2ColInto(r.cols, x, p)
		Col2ImInto(r.img, r.cols, p)
		r.mp, r.mpb = New(grad.Shape...), New(x.Shape...)
		arg := make([]int, r.mp.Size())
		MaxPoolInto(r.mp, arg, x, pool)
		MaxPoolBackwardInto(r.mpb, grad, arg)
		r.ap, r.apb = New(grad.Shape...), New(x.Shape...)
		AvgPoolInto(r.ap, x, pool)
		AvgPoolBackwardInto(r.apb, grad, pool)
		r.add = Add(big1, big2)
		return r
	}

	seq := run()
	const workers = 8
	prev := parallel.Set(workers)
	defer parallel.Set(prev)
	par := make([]result, workers)
	parallel.Do(workers, func(i int) { par[i] = run() })

	for _, r := range par {
		bitEqual(t, "MatMul", seq.mm, r.mm)
		bitEqual(t, "MatMulT1", seq.t1, r.t1)
		bitEqual(t, "MatMulT2", seq.t2, r.t2)
		bitEqual(t, "Im2Col", seq.cols, r.cols)
		bitEqual(t, "Col2Im", seq.img, r.img)
		bitEqual(t, "MaxPool", seq.mp, r.mp)
		bitEqual(t, "MaxPoolBackward", seq.mpb, r.mpb)
		bitEqual(t, "AvgPool", seq.ap, r.ap)
		bitEqual(t, "AvgPoolBackward", seq.apb, r.apb)
		bitEqual(t, "Add", seq.add, r.add)
	}
}
