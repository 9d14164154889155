package nn

import (
	"fmt"

	"socflow/internal/tensor"
)

// Sequential chains layers; it is itself a Layer, so residual blocks
// can nest Sequentials.
type Sequential struct {
	Layers []Layer

	// Cached walks, invalidated by Add. ZeroGrad and the optimizer call
	// Params every iteration; rebuilding these slices per call was a
	// steady per-step allocation.
	params  []*Param
	weights []*tensor.Tensor
	grads   []*tensor.Tensor
	state   []*tensor.Tensor

	// Forward execution plan with conv blocks fused (see fused.go),
	// built lazily and invalidated by Add. Backward always walks the
	// raw layer list.
	plan      []planStep
	planBuilt bool
}

// NewSequential builds a model from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Add appends a layer.
func (s *Sequential) Add(l Layer) {
	s.Layers = append(s.Layers, l)
	s.params, s.weights, s.grads, s.state = nil, nil, nil, nil
	s.plan, s.planBuilt = nil, false
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !s.planBuilt {
		s.buildPlan()
	}
	for _, st := range s.plan {
		if st.fused != nil {
			x = st.fused.forward(x, train)
		} else {
			x = st.layer.Forward(x, train)
		}
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		ps := make([]*Param, 0, len(s.Layers))
		for _, l := range s.Layers {
			ps = append(ps, l.Params()...)
		}
		s.params = ps
	}
	return s.params
}

// ZeroGrad clears all parameter gradients.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.Grad.Zero()
	}
}

// ParamCount returns the total number of trainable scalars.
func (s *Sequential) ParamCount() int {
	n := 0
	for _, p := range s.Params() {
		n += p.W.Size()
	}
	return n
}

// Weights returns the parameter tensors in declaration order, the
// vector that collectives exchange.
func (s *Sequential) Weights() []*tensor.Tensor {
	if s.weights == nil {
		ps := s.Params()
		ws := make([]*tensor.Tensor, len(ps))
		for i, p := range ps {
			ws[i] = p.W
		}
		s.weights = ws
	}
	return s.weights
}

// Grads returns the gradient tensors in declaration order.
func (s *Sequential) Grads() []*tensor.Tensor {
	if s.grads == nil {
		ps := s.Params()
		gs := make([]*tensor.Tensor, len(ps))
		for i, p := range ps {
			gs[i] = p.Grad
		}
		s.grads = gs
	}
	return s.grads
}

// StateTensors returns non-trainable state (batch-norm running stats)
// in declaration order, walking nested Sequentials and residual blocks.
func (s *Sequential) StateTensors() []*tensor.Tensor {
	if s.state != nil {
		return s.state
	}
	out := []*tensor.Tensor{}
	walkLayers(s, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			out = append(out, bn.State()...)
		}
	})
	s.state = out
	return out
}

// walkLayers calls fn on l and, depth first in declaration order, on
// every layer nested in it through Sequentials and residual blocks.
func walkLayers(l Layer, fn func(Layer)) {
	fn(l)
	switch v := l.(type) {
	case *Sequential:
		for _, inner := range v.Layers {
			walkLayers(inner, fn)
		}
	case *Residual:
		walkLayers(v.Body, fn)
		if v.Shortcut != nil {
			walkLayers(v.Shortcut, fn)
		}
	}
}

// CopyWeightsFrom copies all weights and state from src into s. The two
// models must have identical architecture.
func (s *Sequential) CopyWeightsFrom(src *Sequential) {
	dw, sw := s.Weights(), src.Weights()
	if len(dw) != len(sw) {
		panic(fmt.Sprintf("nn: CopyWeightsFrom with %d vs %d params", len(dw), len(sw)))
	}
	for i := range dw {
		dw[i].CopyFrom(sw[i])
	}
	ds, ss := s.StateTensors(), src.StateTensors()
	for i := range ds {
		ds[i].CopyFrom(ss[i])
	}
}

// EvalTwin returns a model that runs s's eval forward on another
// goroutine: the same layers over the same Params and batch-norm
// running statistics, with forward buffers, Conv2D Wᵀ caches and kernel
// counts of its own. Its eval forward is s's bit for bit, and a write
// to s's weights or state (a restored checkpoint, a training step) is
// the twin's too. A twin is for eval forwards only, run while nothing
// writes the shared tensors: a train forward would update the shared
// running statistics, and Backward would accumulate into the shared
// gradients.
func (s *Sequential) EvalTwin() *Sequential {
	layers := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		layers[i] = evalTwin(l)
	}
	return NewSequential(layers...)
}

// evalTwin is EvalTwin for one layer: shared parameters and state,
// fresh buffers, the original's GEMM timing switch.
func evalTwin(l Layer) Layer {
	switch v := l.(type) {
	case *Sequential:
		return v.EvalTwin()
	case *Residual:
		var sc *Sequential
		if v.Shortcut != nil {
			sc = v.Shortcut.EvalTwin()
		}
		return NewResidual(v.Body.EvalTwin(), sc)
	case *Conv2D:
		return &Conv2D{InC: v.InC, OutC: v.OutC, P: v.P, Weight: v.Weight, Bias: v.Bias,
			kc: kernelCounter{timed: v.kc.timed}}
	case *DepthwiseConv2D:
		return &DepthwiseConv2D{C: v.C, P: v.P, Weight: v.Weight, Bias: v.Bias}
	case *Dense:
		return &Dense{In: v.In, Out: v.Out, Weight: v.Weight, Bias: v.Bias,
			kc: kernelCounter{timed: v.kc.timed}}
	case *BatchNorm2D:
		return &BatchNorm2D{C: v.C, Momentum: v.Momentum, Eps: v.Eps, Gamma: v.Gamma, Beta: v.Beta,
			RunningMean: v.RunningMean, RunningVar: v.RunningVar}
	case *MaxPool2D:
		return &MaxPool2D{P: v.P}
	case *AvgPool2D:
		return &AvgPool2D{P: v.P}
	case *ReLU:
		return NewReLU()
	case *Tanh:
		return NewTanh()
	case *GlobalAvgPool:
		return NewGlobalAvgPool()
	case *Flatten:
		return NewFlatten()
	}
	panic(fmt.Sprintf("nn: no eval twin for %T", l))
}

// Residual wraps a body with an identity (or projection) shortcut:
// y = body(x) + shortcut(x). The ReLU after the sum is applied inside.
type Residual struct {
	Body     *Sequential
	Shortcut *Sequential // nil means identity

	relu    *ReLU
	sum, dx *tensor.Tensor // persistent buffers
	params  []*Param
}

// NewResidual builds a residual block. Pass shortcut == nil for an
// identity skip connection.
func NewResidual(body, shortcut *Sequential) *Residual {
	return &Residual{Body: body, Shortcut: shortcut, relu: NewReLU()}
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.Body.Forward(x, train)
	var sc *tensor.Tensor
	if r.Shortcut != nil {
		sc = r.Shortcut.Forward(x, train)
	} else {
		sc = x
	}
	if !y.SameShape(sc) {
		panic(fmt.Sprintf("nn: residual shape mismatch %v vs %v", y.Shape, sc.Shape))
	}
	r.sum = ensureBuf(r.sum, y.Shape...)
	tensor.AddInto(r.sum, y, sc)
	return r.relu.Forward(r.sum, train)
}

// Backward implements Layer.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := r.relu.Backward(grad)
	dBody := r.Body.Backward(g)
	r.dx = ensureBuf(r.dx, dBody.Shape...)
	if r.Shortcut != nil {
		dSc := r.Shortcut.Backward(g)
		tensor.AddInto(r.dx, dBody, dSc)
	} else {
		tensor.AddInto(r.dx, dBody, g)
	}
	return r.dx
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	if r.params == nil {
		// Build a fresh slice: appending to the Body's cached slice
		// could clobber its spare capacity.
		bp := r.Body.Params()
		ps := make([]*Param, 0, len(bp)+4)
		ps = append(ps, bp...)
		if r.Shortcut != nil {
			ps = append(ps, r.Shortcut.Params()...)
		}
		r.params = ps
	}
	return r.params
}
