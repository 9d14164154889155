package core

import (
	"math"

	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/quant"
	"socflow/internal/tensor"
)

// MixedPrecision implements §3.2: data-parallel mixed-precision
// training across the mobile CPU (FP32, standard SGD) and NPU (INT8,
// integer SGD). It maintains the two model replicas, partitions each
// mini-batch between them with the α/β controller, and merges weights
// with Eq. 5 before cross-SoC synchronization.
type MixedPrecision struct {
	// FP32 is the CPU-side replica.
	FP32 *nn.Sequential
	// INT8 is the NPU-side replica; its weights live on an INT8 grid.
	INT8 *nn.Sequential

	cpuOpt *nn.SGD
	npuOpt *quant.Int8SGD
	rng    *tensor.RNG

	// Alpha is the current INT8 confidence (Eq. 4), refreshed by
	// UpdateAlpha at epoch boundaries.
	Alpha float64
	// Beta is the profiled compute-power ratio: the fraction of the
	// batch the NPU can absorb without idling the CPU.
	Beta float64
	// ForceCPUShare overrides the α/β controller when in [0, 1]
	// (ablation variants Ours-INT8 with 0 and Ours-Half with 0.5);
	// the default -1 keeps the controller active.
	ForceCPUShare float64

	// qbufs holds the persistent fake-quantized activation buffers of
	// quantForward, one per quantization point, reused every step. They
	// must be distinct from the layers' own output buffers: downstream
	// layers cache them as inputs for the backward pass.
	qbufs []*tensor.Tensor

	// Per-step scratch, reused across steps: the two batch-split views,
	// the loss-gradient buffer, and the α-probe batch.
	cpuView, npuView *tensor.Tensor
	gradScr          *tensor.Tensor
	probeIdx         []int
	probeX           *tensor.Tensor
	probeLabels      []int
}

// NewMixedPrecision clones the reference model into the two replicas.
func NewMixedPrecision(ref *nn.Sequential, build func() *nn.Sequential, lr, momentum float32, beta float64, rng *tensor.RNG) *MixedPrecision {
	fp := build()
	fp.CopyWeightsFrom(ref)
	i8 := build()
	i8.CopyWeightsFrom(ref)
	mp := &MixedPrecision{
		FP32:          fp,
		INT8:          i8,
		cpuOpt:        nn.NewSGD(lr, momentum, 0),
		npuOpt:        &quant.Int8SGD{LR: lr, GradClip: 1, RNG: rng.Split(77)},
		rng:           rng,
		Alpha:         1, // a fresh INT8 copy is maximally confident
		Beta:          beta,
		ForceCPUShare: -1,
	}
	return mp
}

// CPUShare returns the fraction of each mini-batch routed to the CPU:
// max(e^−α, 1−β) (§3.2). e^−α rises toward 1 as the INT8 model drifts
// (accuracy floor); 1−β is the load-balance floor that keeps the CPU
// from idling.
func (mp *MixedPrecision) CPUShare() float64 {
	if mp.ForceCPUShare >= 0 && mp.ForceCPUShare <= 1 {
		return mp.ForceCPUShare
	}
	conf := math.Exp(-mp.Alpha)
	lb := 1 - mp.Beta
	if conf > lb {
		return conf
	}
	return lb
}

// SplitBatch divides a batch of n samples into CPU and NPU portions
// according to CPUShare. Both portions are non-empty whenever n ≥ 2
// and the share is interior.
func (mp *MixedPrecision) SplitBatch(n int) (cpuN, npuN int) {
	cpuN = int(math.Round(mp.CPUShare() * float64(n)))
	if cpuN < 0 {
		cpuN = 0
	}
	if cpuN > n {
		cpuN = n
	}
	return cpuN, n - cpuN
}

// Step runs one mixed-precision training step on a batch: the first
// cpuN samples train the FP32 replica and the rest train the INT8
// replica, in parallel on-chip. The replicas are reconciled by Merge
// (Eq. 5) at the end of the intra-group epoch ("when training
// completes on both CPU and NPU"), so within an epoch they follow
// genuinely independent trajectories — which is what makes the α probe
// informative. It returns the mean loss over the batch.
// minSplitBatch is the smallest batch worth splitting across the two
// processors: below it, the per-replica sub-batches are too small for
// stable batch-norm statistics, so whole batches are routed
// probabilistically instead (same expected split, intact batches).
const minSplitBatch = 2

func (mp *MixedPrecision) Step(x *tensor.Tensor, labels []int) float32 {
	n := x.Shape[0]
	cpuN, npuN := mp.SplitBatch(n)
	if n < minSplitBatch && cpuN > 0 && npuN > 0 {
		if mp.rng.Float64() < mp.CPUShare() {
			cpuN, npuN = n, 0
		} else {
			cpuN, npuN = 0, n
		}
	}

	var loss float64
	if cpuN > 0 {
		mp.cpuView = tensor.RowsInto(mp.cpuView, x, 0, cpuN)
		mp.FP32.ZeroGrad()
		logits := mp.FP32.Forward(mp.cpuView, true)
		mp.gradScr = tensor.Ensure(mp.gradScr, logits.Shape...)
		l := nn.SoftmaxCrossEntropyInto(mp.gradScr, logits, labels[:cpuN])
		mp.FP32.Backward(mp.gradScr)
		mp.cpuOpt.Step(mp.FP32.Params())
		loss += float64(l) * float64(cpuN)
	}
	if npuN > 0 {
		mp.npuView = tensor.RowsInto(mp.npuView, x, cpuN, n)
		mp.INT8.ZeroGrad()
		logits := mp.quantForward(mp.npuView, true)
		mp.gradScr = tensor.Ensure(mp.gradScr, logits.Shape...)
		l := nn.SoftmaxCrossEntropyInto(mp.gradScr, logits, labels[cpuN:])
		mp.INT8.Backward(mp.gradScr)
		// Conv/dense weights take the integer update; batch-norm
		// scales and biases stay in higher precision on the NPU, as
		// NITI-style integer training keeps them (quantizing BN
		// parameters wrecks normalization statistics).
		for _, p := range mp.INT8.Params() {
			if p.NoDecay {
				tensor.Axpy(-mp.npuOpt.LR, p.Grad, p.W)
			} else {
				mp.npuOpt.Step(p.W, p.Grad)
			}
		}
		loss += float64(l) * float64(npuN)
	}
	return float32(loss / float64(n))
}

// Merge applies the Eq. 5 weight aggregation
//
//	w_{t+1} = e^−α · w^{FP32} + (1 − e^−α) · w^{INT8}
//
// and writes the merged weights into both replicas (the INT8 side
// re-quantizes onto its persistent grid, as the NPU would when
// reloading weights). SoCFlow calls it once per epoch, right after
// refreshing α and before cross-group synchronization.
func (mp *MixedPrecision) Merge() {
	// Weight on the INT8 side: 1−e^−α, or 1−share under a forced split
	// (Ours-Half fixes the paper's "α = 0.7 special case", e^−0.7≈0.5).
	w := float32(1 - math.Exp(-mp.Alpha))
	if mp.ForceCPUShare >= 0 && mp.ForceCPUShare <= 1 {
		w = float32(1 - mp.ForceCPUShare)
	}
	fps, ips := mp.FP32.Params(), mp.INT8.Params()
	for i := range fps {
		tensor.Lerp(fps[i].W, fps[i].W, ips[i].W, w)
		ips[i].W.CopyFrom(fps[i].W)
		if !ips[i].NoDecay {
			mp.npuOpt.Requantize(ips[i].W)
		}
	}
	// Batch-norm running statistics blend with the same weight: both
	// replicas saw disjoint (valid) sample streams, so the merged
	// statistics must reflect the same mixture as the weights.
	fs, is := mp.FP32.StateTensors(), mp.INT8.StateTensors()
	for i := range fs {
		tensor.Lerp(fs[i], fs[i], is[i], w)
		is[i].CopyFrom(fs[i])
	}
}

// AdoptMerged propagates externally merged FP32 weights (e.g. after
// the delayed inter-group aggregation) into the INT8 replica,
// re-quantizing onto its grid.
func (mp *MixedPrecision) AdoptMerged() {
	fps, ips := mp.FP32.Params(), mp.INT8.Params()
	for i := range fps {
		ips[i].W.CopyFrom(fps[i].W)
		if !ips[i].NoDecay {
			mp.npuOpt.Requantize(ips[i].W)
		}
	}
	fs, is := mp.FP32.StateTensors(), mp.INT8.StateTensors()
	for i := range fs {
		is[i].CopyFrom(fs[i])
	}
}

// UpdateAlpha refreshes α on a validation probe before each epoch
// (§3.2): "confidence that indicates the error gap between the INT8
// model and the FP32 model". Two signals are combined, both measured
// on the same probe batch:
//
//   - the cosine similarity of the two replicas' logits (the paper's
//     Eq. 4);
//   - the ratio of the two replicas' cross-entropy losses, cubed — the
//     error-gap estimator that stays sensitive at this reproduction's
//     micro scale, where shallow models keep logits directionally
//     aligned long after INT8 noise has started costing real accuracy.
//
// Both signals are 1 when the INT8 replica matches the FP32 one and
// fall as it drifts, so α behaves exactly as the paper describes: high
// early (feed the NPU), decaying as quantization error accumulates
// (shift data back to the CPU).
func (mp *MixedPrecision) UpdateAlpha(probe *dataset.Dataset, batch int) {
	if probe.Len() == 0 {
		return
	}
	if batch > probe.Len() {
		batch = probe.Len()
	}
	if cap(mp.probeIdx) < batch {
		mp.probeIdx = make([]int, batch)
	}
	mp.probeIdx = mp.probeIdx[:batch]
	for i := range mp.probeIdx {
		mp.probeIdx[i] = i
	}
	x, labels := probe.BatchInto(mp.probeX, mp.probeLabels, mp.probeIdx)
	mp.probeX, mp.probeLabels = x, labels

	fpLogits := mp.FP32.Forward(x, false)
	i8Logits := mp.quantForward(x, false)
	mp.gradScr = tensor.Ensure(mp.gradScr, fpLogits.Shape...)
	fpLoss := nn.SoftmaxCrossEntropyInto(mp.gradScr, fpLogits, labels)
	i8Loss := nn.SoftmaxCrossEntropyInto(mp.gradScr, i8Logits, labels)

	logitCos := float64(quant.LogitConfidence(fpLogits, i8Logits))
	ratio := 1.0
	if i8Loss > 0 {
		ratio = float64(fpLoss) / float64(i8Loss)
	}
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	mp.Alpha = logitCos * ratio * ratio * ratio
}

// EndEpoch closes one intra-group training epoch: refresh α from the
// replicas' accumulated divergence on the validation probe, then merge
// them per Eq. 5. The fresh α also sets the next epoch's data split.
func (mp *MixedPrecision) EndEpoch(probe *dataset.Dataset, batch int) {
	mp.UpdateAlpha(probe, batch)
	mp.Merge()
}

// Weights returns the merged (FP32-side) weights, the tensors that
// participate in cross-SoC synchronization.
func (mp *MixedPrecision) Weights() []*tensor.Tensor { return mp.FP32.Weights() }

// SetLR updates both optimizers' learning rates.
func (mp *MixedPrecision) SetLR(lr float32) {
	mp.cpuOpt.LR = lr
	mp.npuOpt.LR = lr
}

// quantForward runs an NPU-style forward pass: the replica's weights
// are already on their INT8 grids, and every activation tensor between
// layers is fake-quantized as well — the INT8 datapath of a real NPU.
// The activation error compounds with depth, which is exactly what
// drives the α confidence down as models get deeper or sharper (the
// paper: "the cosine similarity of two models' logits decays
// exponentially"). Gradients pass straight through the rounding
// (straight-through estimator), matching integer-training practice.
// The final logits stay unquantized (NPUs dequantize the head output).
func (mp *MixedPrecision) quantForward(x *tensor.Tensor, train bool) *tensor.Tensor {
	model := mp.INT8
	x = mp.fakeQuant(0, x)
	for i, l := range model.Layers {
		x = l.Forward(x, train)
		if i < len(model.Layers)-1 {
			x = mp.fakeQuant(i+1, x)
		}
	}
	return x
}

// fakeQuant rounds x onto its INT8 grid into the persistent buffer for
// quantization point i, never modifying x (layers cache their own
// outputs for backward).
func (mp *MixedPrecision) fakeQuant(i int, x *tensor.Tensor) *tensor.Tensor {
	for len(mp.qbufs) <= i {
		mp.qbufs = append(mp.qbufs, nil)
	}
	mp.qbufs[i] = tensor.Ensure(mp.qbufs[i], x.Shape...)
	quant.FakeQuantizeInto(mp.qbufs[i], x)
	return mp.qbufs[i]
}
