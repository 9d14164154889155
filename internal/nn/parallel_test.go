package nn

import (
	"fmt"
	"testing"

	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

// TestLayersBitIdenticalAcrossWorkers checks the determinism contract
// layer by layer where host parallelism lives: P copies of a layer,
// each built from the same seed and run concurrently the way training
// groups run, must each produce byte-for-byte the output, input
// gradient, parameter gradients and running statistics of a lone
// serial run, at P = 3 and 8.
func TestLayersBitIdenticalAcrossWorkers(t *testing.T) {
	cases := []struct {
		name  string
		build func(r *tensor.RNG) Layer
		train bool
	}{
		{"Conv2D", func(r *tensor.RNG) Layer { return NewConv2D(r, 7, 5, 3, 1, 1) }, true},
		{"DepthwiseConv2D", func(r *tensor.RNG) Layer { return NewDepthwiseConv2D(r, 7, 3, 2, 1) }, true},
		{"BatchNorm2D/train", func(*tensor.RNG) Layer { return NewBatchNorm2D(7) }, true},
		{"BatchNorm2D/eval", func(*tensor.RNG) Layer { return NewBatchNorm2D(7) }, false},
		{"ReLU", func(*tensor.RNG) Layer { return NewReLU() }, true},
		{"Tanh", func(*tensor.RNG) Layer { return NewTanh() }, true},
		{"MaxPool2D", func(*tensor.RNG) Layer { return NewMaxPool2D(2, 2) }, true},
		{"AvgPool2D", func(*tensor.RNG) Layer { return &AvgPool2D{P: tensor.ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}} }, true},
		{"GlobalAvgPool", func(*tensor.RNG) Layer { return NewGlobalAvgPool() }, true},
	}
	// run builds the layer from a fixed seed and returns every tensor
	// one forward+backward pass produces or updates.
	run := func(build func(*tensor.RNG) Layer, train bool) map[string]*tensor.Tensor {
		r := tensor.NewRNG(23)
		l := build(r)
		x := tensor.RandNormal(r, 0, 1, 5, 7, 22, 22)
		out := l.Forward(x, train)
		got := map[string]*tensor.Tensor{
			"output":         out,
			"input gradient": l.Backward(tensor.RandNormal(r, 0, 1, out.Shape...)),
		}
		for i, p := range l.Params() {
			got[fmt.Sprintf("gradient of %s (param %d)", p.Name, i)] = p.Grad
		}
		for i, st := range NewSequential(l).StateTensors() {
			got[fmt.Sprintf("running statistic %d", i)] = st
		}
		return got
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := run(c.build, c.train)
			for _, workers := range []int{3, 8} {
				prev := parallel.Set(workers)
				got := make([]map[string]*tensor.Tensor, workers)
				parallel.Do(workers, func(i int) { got[i] = run(c.build, c.train) })
				parallel.Set(prev)
				for i := range got {
					for name, w := range want {
						requireSameBits(t, fmt.Sprintf("workers=%d copy %d %s", workers, i, name), cloneBits(w), got[i][name])
					}
				}
			}
		})
	}
}
