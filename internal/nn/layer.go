// Package nn implements the from-scratch neural-network substrate for
// SoCFlow's functional track: layers with explicit backward passes,
// losses, SGD optimizers, and the model zoo (LeNet-5, VGG-11,
// ResNet-18/50, MobileNet-V1) that the paper evaluates.
//
// Every model exists in two linked forms: a paper-scale Spec (parameter
// count and FLOPs per sample, used by the cluster performance model to
// compute communication volume and compute time) and a micro build
// (small enough to actually train in tests and benchmarks, used by the
// functional track so that convergence phenomena are real).
package nn

import (
	"fmt"

	"socflow/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
	// NoDecay marks parameters (biases, batch-norm scales) excluded
	// from weight decay, following standard practice.
	NoDecay bool
}

// newParam allocates a parameter with a zeroed gradient of the same
// shape.
func newParam(name string, w *tensor.Tensor, noDecay bool) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape...), NoDecay: noDecay}
}

// heWeight returns a weight tensor of the given shape, He-initialized
// from r, or all +0 when r is nil: a geometry-only build (Spec.BuildMicro)
// that draws nothing.
func heWeight(r *tensor.RNG, fanIn int, shape ...int) *tensor.Tensor {
	if r == nil {
		return tensor.New(shape...)
	}
	return tensor.HeInit(r, fanIn, shape...)
}

// Layer is a differentiable module. Forward caches whatever Backward
// needs; Backward accumulates parameter gradients and returns the
// gradient with respect to the layer input.
type Layer interface {
	// Forward computes the layer output. train selects training
	// behaviour (e.g. batch-norm statistics updates).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating into the parameter gradients.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly empty).
	Params() []*Param
}

// Flatten reshapes [N, ...] to [N, features]. It has no parameters.
type Flatten struct {
	inShape []int
	out, dx tensor.Tensor // persistent view headers over caller data
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	n := x.Shape[0]
	f.out.Shape = append(f.out.Shape[:0], n, len(x.Data)/n)
	f.out.Data = x.Data
	return &f.out
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	f.dx.Shape = append(f.dx.Shape[:0], f.inShape...)
	f.dx.Data = grad.Data
	return &f.dx
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// ensureBuf is shorthand for tensor.Ensure: a layer-owned persistent
// buffer, resized only on capacity growth, contents unspecified.
func ensureBuf(buf *tensor.Tensor, shape ...int) *tensor.Tensor {
	return tensor.Ensure(buf, shape...)
}

// mustFollowTrain panics when a layer's Backward follows an eval
// Forward: an eval forward writes no backward state, so what Backward
// would read is stale.
func mustFollowTrain(layer string, eval bool) {
	if eval {
		panic(fmt.Sprintf("nn: %s.Backward after an eval Forward, which keeps no backward state", layer))
	}
}

// checkDims panics with a descriptive message if x does not have the
// expected rank.
func checkDims(layer string, x *tensor.Tensor, want int) {
	if x.Dims() != want {
		panic(fmt.Sprintf("nn: %s expects %d-D input, got %v", layer, want, x.Shape))
	}
}
