package nn

import (
	"fmt"
	"testing"

	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

// TestLayersBitIdenticalAcrossWorkers checks the determinism contract
// layer by layer: every layer that dispatches through the worker pool
// must produce byte-for-byte the same output, input gradient, parameter
// gradients and running statistics at pool widths 1, 3 and 8. The
// batch (5) and channel (7) counts divide by neither width, so chunks
// are uneven, and the input is large enough (5·7·22·22 > elemCutoff)
// that the elementwise layers fan out too.
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
		{"AvgPool2D", func(*tensor.RNG) Layer { return NewAvgPool2D(2, 2) }, true},
		{"GlobalAvgPool", func(*tensor.RNG) Layer { return NewGlobalAvgPool() }, true},
	}
	// run builds the layer from a fixed seed and returns every tensor
	// one forward+backward pass produces or updates.
	run := func(build func(*tensor.RNG) Layer, train bool, workers int) map[string]*tensor.Tensor {
		prev := parallel.Set(workers)
		defer parallel.Set(prev)
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
			want := run(c.build, c.train, 1)
			for _, workers := range []int{3, 8} {
				got := run(c.build, c.train, workers)
				for name, w := range want {
					requireSameBits(t, fmt.Sprintf("workers=%d %s", workers, name), cloneBits(w), got[name])
				}
			}
		})
	}
}
