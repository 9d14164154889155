// Package quant implements the INT8 quantized-training substrate that
// stands in for the paper's NPU backend (Mandheling / NITI-style
// integer training on the Hexagon DSP).
//
// The NPU effects that matter to SoCFlow are (a) a large speedup over
// the CPU and (b) an accuracy degradation that grows as training
// progresses and as the update magnitude shrinks (Observation #3,
// Fig. 4(c)). Both are reproduced faithfully: speed comes from the
// cluster performance model, and degradation emerges from genuine
// quantization — weights live on persistent per-channel INT8 grids
// (Int8SGD), activations are fake-quantized layer by layer on the NPU
// datapath, gradients pass through the INT8 grid before the update,
// and updates smaller than the grid step survive only in expectation
// via stochastic rounding — exactly the mechanism that makes INT8
// training lag FP32 near convergence.
package quant

import (
	"fmt"
	"math"

	"socflow/internal/tensor"
)

// QTensor is an INT8-quantized tensor: int8 codes plus a single
// symmetric per-tensor scale, so value ≈ float32(code) * Scale.
type QTensor struct {
	Shape []int
	Codes []int8
	Scale float32
}

// QuantizeStochastic converts t to INT8 using stochastic rounding: a
// value between two grid points rounds up with probability equal to its
// fractional position. Stochastic rounding keeps the *expected* update
// unbiased, which is why integer-training schemes (NITI, UI8) rely on
// it; the variance it injects is the genuine source of INT8 accuracy
// loss.
func QuantizeStochastic(t *tensor.Tensor, rng *tensor.RNG) *QTensor {
	q := &QTensor{
		Shape: append([]int(nil), t.Shape...),
		Codes: make([]int8, len(t.Data)),
		Scale: scaleFor(t.AbsMax()),
	}
	if isNaN32(q.Scale) {
		return q // poisoned: dequantizes to all-NaN
	}
	inv := 1 / q.Scale
	for i, v := range t.Data {
		if isNaN32(v) {
			q.Scale = nan32()
			return q
		}
		x := float64(v * inv)
		lo := math.Floor(x)
		frac := x - lo
		r := lo
		if rng.Float64() < frac {
			r = lo + 1
		}
		q.Codes[i] = clampInt8(r)
	}
	return q
}

// Dequantize converts q back to float32.
func (q *QTensor) Dequantize() *tensor.Tensor {
	t := tensor.New(q.Shape...)
	for i, c := range q.Codes {
		t.Data[i] = float32(c) * q.Scale
	}
	return t
}

// Size returns the number of elements.
func (q *QTensor) Size() int { return len(q.Codes) }

// Bytes returns the wire size of the quantized tensor (1 byte per code
// plus the 4-byte scale), the figure the communication model uses when
// INT8 gradients are exchanged.
func (q *QTensor) Bytes() int { return len(q.Codes) + 4 }

// Clone returns a deep copy.
func (q *QTensor) Clone() *QTensor {
	c := &QTensor{Shape: append([]int(nil), q.Shape...), Codes: make([]int8, len(q.Codes)), Scale: q.Scale}
	copy(c.Codes, q.Codes)
	return c
}

// FakeQuantizeInto rounds t onto its INT8 grid and back into an
// existing tensor of the same element count, overwriting it. dst may
// alias t. This is the standard simulated-quantization operator: the
// result is exactly what the NPU would compute with, while staying in
// float32 for the rest of the pipeline.
func FakeQuantizeInto(dst, t *tensor.Tensor) {
	if len(dst.Data) != len(t.Data) {
		panic(fmt.Sprintf("quant: FakeQuantizeInto size mismatch %v vs %v", dst.Shape, t.Shape))
	}
	fakeQuantRange(dst.Data, t.Data, scaleFor(t.AbsMax()))
}

// fakeQuantRange rounds src onto the grid of scale s into dst (which
// may alias src). A NaN scale (non-finite absmax) poisons every output;
// a NaN element under a finite scale stays NaN instead of passing
// through the int8 conversion, so exploding-gradient evidence survives
// quantization exactly as it survives the GEMM kernels.
//
// Each element is gridCode(v·inv)·s: float32(clampInt8(math.Round(
// float64(v·inv))))·s bit for bit. The one input gridCode does not
// model is the NaN that 0·inv makes when 1/s overflows (s < 2^-128);
// that grid keeps the reference expression.
func fakeQuantRange(dst, src []float32, s float32) {
	if isNaN32(s) {
		for i := range dst {
			dst[i] = nan32()
		}
		return
	}
	inv := 1 / s
	if inv > math.MaxFloat32 {
		for i, v := range src {
			if isNaN32(v) {
				dst[i] = v
				continue
			}
			dst[i] = float32(clampInt8(math.Round(float64(v*inv)))) * s
		}
		return
	}
	fakeQuantGrid(dst, src, s, inv)
}

// fakeQuantGrid is fakeQuantRange's main branch, s finite and inv = 1/s
// finite: the portable loop, or the AVX2 lanes of quant_amd64.go.
var fakeQuantGrid = fakeQuantGridGo

func fakeQuantGridGo(dst, src []float32, s, inv float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		q := gridCode(v*inv) * s
		if isNaN32(v) {
			q = v
		}
		dst[i] = q
	}
}

// gridCode rounds y half away from zero onto the symmetric grid
// [−127, 127] without a data-dependent branch, and returns the code as
// a float32. It equals float32(clampInt8(math.Round(float64(y)))) for
// every non-NaN y (TestGridCodeMatchesRoundExhaustive), because:
//   - rounding half away from zero is sign(y)·⌊|y| + 0.5⌋;
//   - clamping |y| to 127 first changes nothing: the bound is an
//     integer and rounding is monotone;
//   - then |y| + 0.5 is exact in float64 whenever |y| >= 2^-22 (24
//     significant bits under a 2^7 ceiling), and below that it stays
//     under 1, so truncation floors it either way;
//   - the sign goes back on the integer, so a code of 0 is +0 as
//     float32(int8(0)) is.
func gridCode(y float32) float32 {
	bits := math.Float32bits(y)
	a := min(math.Float32frombits(bits&^(1<<31)), 127)
	r := int32(float64(a) + 0.5)
	neg := int32(bits) >> 31 // 0 or −1
	return float32((r ^ neg) - neg)
}

// scaleFor maps an absolute maximum to the symmetric grid scale. A
// non-finite absMax (Inf from an overflowed tensor; NaN cannot occur
// since AbsMax skips NaN) yields a NaN scale, which every quantization
// entry point treats as "poison the result" rather than producing
// finite garbage.
func scaleFor(absMax float32) float32 {
	if absMax == 0 {
		return 1
	}
	if isNaN32(absMax) || absMax > math.MaxFloat32 || absMax < -math.MaxFloat32 {
		return nan32()
	}
	return absMax / 127
}

// clampInt8 clamps a rounded value onto the symmetric ±127 grid. The
// scale is absMax/127, so code -128 would dequantize to a magnitude
// *above* absMax — off the symmetric grid, biasing updates negative.
// Stochastic rounding can produce -128 (a value pinned at -absMax maps
// to -127-ε after the scale round-trip and rounds down), so the clamp
// must be symmetric. Callers must filter NaN before clamping: int8(NaN)
// is platform-dependent.
func clampInt8(x float64) int8 {
	if x > 127 {
		return 127
	}
	if x < -127 {
		return -127
	}
	return int8(x)
}

func isNaN32(v float32) bool { return v != v }

func nan32() float32 { return float32(math.NaN()) }

// LogitConfidence computes SoCFlow's α metric (Eq. 4): the cosine
// similarity between the FP32 model's logits and the INT8 model's
// logits on a validation probe. Both tensors must be [batch, classes].
// The result is clamped to [0, 1]: a negative cosine means the INT8
// model has become useless, which the controller treats the same as 0.
func LogitConfidence(fp32Logits, int8Logits *tensor.Tensor) float32 {
	if !fp32Logits.SameShape(int8Logits) {
		panic(fmt.Sprintf("quant: LogitConfidence shape mismatch %v vs %v", fp32Logits.Shape, int8Logits.Shape))
	}
	a := tensor.CosineSimilarity(fp32Logits, int8Logits)
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// QuantizeStochasticPerChannelInPlace applies stochastic rounding onto
// per-channel INT8 grids in place, the integer-SGD weight storage
// format.
func QuantizeStochasticPerChannelInPlace(t *tensor.Tensor, rng *tensor.RNG) {
	if t.Dims() < 2 || t.Shape[0] <= 1 {
		q := QuantizeStochastic(t, rng)
		copy(t.Data, q.Dequantize().Data)
		return
	}
	ch := t.Shape[0]
	stride := len(t.Data) / ch
	for c := 0; c < ch; c++ {
		row := t.Data[c*stride : (c+1)*stride]
		s := scaleFor(tensor.AbsMax(row))
		if isNaN32(s) {
			for i := range row {
				row[i] = nan32()
			}
			continue
		}
		inv := 1 / s
		for i, v := range row {
			if isNaN32(v) {
				continue // already NaN; int8(NaN) would destroy it
			}
			x := float64(v * inv)
			lo := math.Floor(x)
			r := lo
			if rng.Float64() < x-lo {
				r = lo + 1
			}
			row[i] = float32(clampInt8(r)) * s
		}
	}
}
