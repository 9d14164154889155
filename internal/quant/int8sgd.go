package quant

import (
	"math"

	"socflow/internal/tensor"
)

// Int8SGD performs the NPU-side weight update the way integer-only
// training frameworks (NITI, Mandheling) do: each weight tensor lives
// on a *persistent* per-channel INT8 grid, and an SGD step moves the
// integer codes by the stochastically rounded update. Keeping the grid
// fixed between steps matters — re-deriving the scale from the drifting
// absmax every step would re-round the whole tensor and inject a random
// walk far larger than real integer arithmetic does. The grid is
// re-anchored only when the weights outgrow it.
//
// The genuine INT8 degradation the paper observes (Observation #3)
// still emerges: updates smaller than the grid step survive only in
// expectation, so late training — when per-worker gradients shrink as
// 1/N — loses precision exactly as on the real NPU.
type Int8SGD struct {
	// LR is the learning rate applied to the dequantized gradient.
	LR float32
	// GradClip bounds the gradient absolute value before the update
	// (0 disables clipping).
	GradClip float32
	// RNG drives stochastic rounding; must be non-nil.
	RNG *tensor.RNG

	// scales holds the persistent per-channel grid scale of each
	// weight tensor, keyed by the tensor itself.
	scales map[*tensor.Tensor][]float32
}

// headroom is the slack the grid allows above the current absmax when a
// scale is (re)anchored, so ordinary training drift does not force
// constant re-gridding.
const headroom = 1.5

// channelsOf returns the channel count and per-channel stride for a
// weight tensor (axis 0 = channels; 1-D tensors are one channel).
func channelsOf(w *tensor.Tensor) (ch, stride int) {
	if w.Dims() < 2 || w.Shape[0] <= 1 {
		return 1, len(w.Data)
	}
	return w.Shape[0], len(w.Data) / w.Shape[0]
}

// scaleOf returns (anchoring if needed) the persistent per-channel
// scales for w.
func (o *Int8SGD) scaleOf(w *tensor.Tensor) []float32 {
	if o.scales == nil {
		o.scales = make(map[*tensor.Tensor][]float32)
	}
	if s, ok := o.scales[w]; ok {
		return s
	}
	s := o.anchor(w)
	o.scales[w] = s
	return s
}

// anchor derives fresh per-channel scales with headroom.
func (o *Int8SGD) anchor(w *tensor.Tensor) []float32 {
	ch, stride := channelsOf(w)
	s := make([]float32, ch)
	for c := 0; c < ch; c++ {
		row := w.Data[c*stride : (c+1)*stride]
		s[c] = scaleFor(tensor.AbsMax(row) * headroom)
	}
	return s
}

// Step applies one integer SGD update:
//
//	codes <- clamp(codes - stochastic_round(lr·fakequant(clip(g))/scale))
//
// with per-channel scales that persist across steps. If any channel's
// weights have outgrown its grid, the tensor is re-anchored afterwards.
//
// The gradient is fake-quantized element by element inside the update
// loop, never copied. Its grid scale is gs = min(g.AbsMax(), GradClip)
// /127, the abs-max of the clipped gradient (clipping keeps NaN, which
// AbsMax skips, and turns ±Inf into ±clip). On that grid the clip
// itself is implied: when it binds, ±clip is code ±127, and so is every
// value beyond it.
func (o *Int8SGD) Step(w, g *tensor.Tensor) {
	gmax := g.AbsMax()
	if o.GradClip > 0 {
		gmax = min(gmax, o.GradClip)
	}
	gs := scaleFor(gmax)
	u := update{lr: o.LR, gs: gs, ginv: 1 / gs}
	s := o.scaleOf(w)
	ch, stride := channelsOf(w)
	gd := g.Data[:len(w.Data)]
	regrid := false
	for c := 0; c < ch; c++ {
		u.scale = s[c]
		u.inv, u.limit = 1/u.scale, u.scale*127
		lo, hi := c*stride, (c+1)*stride
		if stepRow(w.Data[lo:hi], gd[lo:hi], u, o) {
			regrid = true
		}
	}
	if regrid {
		o.scales[w] = o.anchor(w)
	}
}

// update holds the constants of one Step row: the learning rate, the
// gradient's grid scale gs and 1/gs, and the weight row's persistent
// scale, 1/scale and grid edge scale·127.
type update struct {
	lr, gs, ginv      float32
	scale, inv, limit float32
}

// stepRow updates one channel row and reports whether a weight reached
// its grid edge: the portable loop, or the AVX2 lanes of
// quant_amd64.go.
var stepRow = stepRowGo

// stepRowGo is the update loop. Each element draws one uniform from
// o.RNG, in order, unless its x is NaN (a NaN weight, gradient or
// scale): that weight becomes NaN and draws nothing.
func stepRowGo(row, grad []float32, u update, o *Int8SGD) (regrid bool) {
	grad = grad[:len(row)]
	wide := u.ginv > math.MaxFloat32 // fakeQuantRange's overflowing-1/s grid
	for i, v := range grad {
		q := gridCode(v*u.ginv) * u.gs
		if wide {
			q = float32(clampInt8(math.Round(float64(v*u.ginv)))) * u.gs
		}
		if isNaN32(v) {
			q = v
		}
		x := float64((row[i] - u.lr*q) * u.inv)
		if x != x {
			// NaN weight, gradient, or scale: keep the poison
			// explicit instead of feeding NaN to int8 conversion.
			row[i] = nan32()
			continue
		}
		lo := math.Floor(x)
		r := lo
		if o.RNG.Float64() < x-lo {
			r = lo + 1
		}
		w := float32(clampInt8(r)) * u.scale
		row[i] = w
		if w >= u.limit || w <= -u.limit {
			regrid = true
		}
	}
	return regrid
}

// StepParams applies Step to each (weight, gradient) pair.
func (o *Int8SGD) StepParams(ws, gs []*tensor.Tensor) {
	if len(ws) != len(gs) {
		panic("quant: StepParams length mismatch")
	}
	for i := range ws {
		o.Step(ws[i], gs[i])
	}
}

// Requantize nearest-rounds w onto its persistent grid, re-anchoring
// first if any value outgrew it. SoCFlow's Eq. 5 merge calls this after
// blending the FP32 and INT8 replicas so the NPU side returns to its
// own grid without the grid itself drifting.
func (o *Int8SGD) Requantize(w *tensor.Tensor) {
	s := o.scaleOf(w)
	ch, stride := channelsOf(w)
	// Re-anchor if the merged weights escaped the grid.
	for c := 0; c < ch; c++ {
		limit := s[c] * 127
		row := w.Data[c*stride : (c+1)*stride]
		for _, v := range row {
			if v > limit || v < -limit {
				s = o.anchor(w)
				o.scales[w] = s
				c = ch // break outer
				break
			}
		}
	}
	for c := 0; c < ch; c++ {
		fakeQuantRange(w.Data[c*stride:(c+1)*stride], w.Data[c*stride:(c+1)*stride], s[c])
	}
}
