package serve

import (
	"fmt"
	"math"

	"socflow/internal/cluster"
	"socflow/internal/nn"
	"socflow/internal/simnet"
	"socflow/internal/tensor"
)

// EngineConfig assembles an inference engine.
type EngineConfig struct {
	// Spec is the paper-scale model card (ForwardGFLOPs, NPUSpeedup)
	// the performance track prices against.
	Spec *nn.Spec
	// Model is the micro model run functionally in eval mode. Its
	// weights are the serving weights (trained or freshly seeded).
	Model *nn.Sequential
	// Cluster supplies the network topology and silicon generation.
	Cluster *cluster.Cluster
	// Stages is the pipeline depth: the model is split across this many
	// SoCs (consecutive IDs starting at 0 — replicas are symmetric, so
	// stage placement of replica 0 prices them all).
	Stages int
	// InC and ImgSize are the micro input shape for the cost walk.
	InC, ImgSize int
	// ActivationScale maps micro activation volumes to paper scale
	// (default 16 ≈ the (32/8)² area ratio between paper and micro
	// inputs).
	ActivationScale float64
}

// Engine serves one partitioned model: functionally it runs the whole
// micro model in eval mode (the split changes where simulated time is
// spent, never the math), while the performance track prices each
// stage's INT8 forward on its SoC's NPU and each stage boundary's
// activation transfer on simnet.
//
// An Engine is not goroutine-safe; Replay drives it from one loop.
type Engine struct {
	Spec   *nn.Spec
	Model  *nn.Sequential
	Stages []Stage

	clu        *cluster.Cluster
	socs       []int // stage index -> SoC ID (replica 0's placement)
	totalFLOPs float64
	actScale   float64
	preds      []int
}

// NewEngine partitions the model and builds the engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Spec == nil || cfg.Model == nil || cfg.Cluster == nil {
		return nil, fmt.Errorf("serve: EngineConfig needs Spec, Model, and Cluster")
	}
	costs := LayerCosts(cfg.Model, cfg.InC, cfg.ImgSize)
	stages, err := Partition(costs, cfg.Stages)
	if err != nil {
		return nil, err
	}
	if cfg.Stages > len(cfg.Cluster.SoCs) {
		return nil, fmt.Errorf("serve: %d stages exceed the %d-SoC cluster", cfg.Stages, len(cfg.Cluster.SoCs))
	}
	e := &Engine{
		Spec:     cfg.Spec,
		Model:    cfg.Model,
		Stages:   stages,
		clu:      cfg.Cluster,
		actScale: cfg.ActivationScale,
	}
	if e.actScale <= 0 {
		e.actScale = 16
	}
	for _, c := range costs {
		e.totalFLOPs += c.FLOPs
	}
	for i := range stages {
		e.socs = append(e.socs, i)
	}
	return e, nil
}

// Predict classifies a batch: one eval-mode forward pass and a per-row
// argmax. The returned slice is reused across calls — steady state is
// allocation-free (the model's layer buffers, the fused plan, and the
// argmax buffer all persist).
func (e *Engine) Predict(x *tensor.Tensor) []int {
	logits := e.Model.Forward(x, false)
	e.preds = tensor.ArgmaxRowsInto(e.preds, logits)
	return e.preds
}

// StageSeconds prices each stage's forward for the batch: the stage's
// share of the paper-scale forward FLOPs on the SoC's NPU (serving is
// the INT8 inference path — 1× forward, not training's 3×), plus the
// per-batch NPU dispatch overhead, derated by the SoC's DVFS throttle.
func (e *Engine) StageSeconds(batch int) []float64 {
	gen := e.clu.Config.Generation
	npu := gen.CPUGflops * e.Spec.NPUSpeedup * gen.NPUBoost
	out := make([]float64, len(e.Stages))
	for i, st := range e.Stages {
		frac := st.FLOPs / e.totalFLOPs
		t := frac*e.Spec.ForwardGFLOPs*float64(batch)/npu + cluster.NPUBatchOverhead
		out[i] = t / e.clu.SoCs[e.socs[i]].Throttle
	}
	return out
}

// TransferSeconds prices each stage boundary's activation handoff for
// the batch through the simnet topology (SoC uplink/downlink, and the
// PCB uplinks plus switch fabric when a boundary crosses boards). Each
// handoff is simulated on, and counted by, the engine's cluster.
func (e *Engine) TransferSeconds(batch int) []float64 {
	if len(e.Stages) < 2 {
		return nil
	}
	out := make([]float64, len(e.Stages)-1)
	for i := range out {
		bytes := float64(e.Stages[i].OutElems) * e.actScale * 4 * float64(batch)
		out[i] = e.clu.Simulate([]*simnet.Flow{e.clu.Flow("stage", e.socs[i], e.socs[i+1], bytes, 0)})
	}
	return out
}

// BatchLatency is the end-to-end pipeline latency for one batch: every
// stage plus every boundary transfer, in sequence.
func (e *Engine) BatchLatency(batch int) float64 {
	sum := 0.0
	for _, t := range e.StageSeconds(batch) {
		sum += t
	}
	for _, t := range e.TransferSeconds(batch) {
		sum += t
	}
	return sum
}

// Footprint is the SoCs the serving plane wants from a numSoCs cluster
// at the given busy fraction: the demand share, rounded up to whole
// replicas of a stages-deep pipeline, never below one replica and never
// beyond the cluster.
func Footprint(numSoCs, stages int, busy float64) (socs, replicas int) {
	want := int(math.Ceil(float64(numSoCs) * busy))
	replicas = (want + stages - 1) / stages
	if replicas < 1 {
		replicas = 1
	}
	if max := numSoCs / stages; replicas > max && max > 0 {
		replicas = max
	}
	return replicas * stages, replicas
}

// BottleneckSeconds is the pipeline's initiation interval for the
// batch: the slowest stage or transfer. A replica can admit a new
// batch this long after the previous one entered — the pipelining win
// over a monolithic placement.
func (e *Engine) BottleneckSeconds(batch int) float64 {
	worst := 0.0
	for _, t := range e.StageSeconds(batch) {
		if t > worst {
			worst = t
		}
	}
	for _, t := range e.TransferSeconds(batch) {
		if t > worst {
			worst = t
		}
	}
	return worst
}
