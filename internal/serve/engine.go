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
	socs       []int          // stage index -> SoC ID (replica 0's placement)
	hops       []*simnet.Flow // stage boundary i -> its hand-off flow
	totalFLOPs float64
	actScale   float64
	preds      []int
	price      Pricing
}

// Pricing is one batch's simulated cost, as Engine.Price leaves it.
type Pricing struct {
	// Stages holds each stage's forward seconds, Transfers each stage
	// boundary's hand-off seconds.
	Stages, Transfers []float64
	// Latency is the end-to-end pipeline latency: every stage plus
	// every boundary transfer, in sequence, summed in that order.
	Latency float64
	// Bottleneck is the pipeline's initiation interval: the slowest
	// stage or transfer. A replica can admit a new batch this long after
	// the previous one entered — the pipelining win over a monolithic
	// placement.
	Bottleneck float64
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
	for i := 1; i < len(stages); i++ {
		e.hops = append(e.hops, e.clu.Flow("stage", e.socs[i-1], e.socs[i], 0, 0))
	}
	e.price.Stages = make([]float64, len(stages))
	e.price.Transfers = make([]float64, len(e.hops))
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

// Price prices one batch in one pass and returns the engine's Pricing,
// which the next call overwrites. A stage's forward is its share of
// the paper-scale forward FLOPs on the SoC's NPU (serving is the INT8
// inference path — 1× forward, not training's 3×), plus the per-batch
// NPU dispatch overhead, derated by the SoC's live DVFS throttle. A
// boundary's activation hand-off is simulated through the simnet
// topology (SoC uplink/downlink, and the PCB uplinks plus switch fabric
// when it crosses boards) on, and counted by, the engine's cluster:
// once per call. Steady state allocates nothing: each boundary's flow
// and path are built once, and Simulate resets what it writes into a
// flow before it runs.
func (e *Engine) Price(batch int) *Pricing {
	p := &e.price
	gen := e.clu.Config.Generation
	npu := gen.CPUGflops * e.Spec.NPUSpeedup * gen.NPUBoost
	for i, st := range e.Stages {
		frac := st.FLOPs / e.totalFLOPs
		t := frac*e.Spec.ForwardGFLOPs*float64(batch)/npu + cluster.NPUBatchOverhead
		p.Stages[i] = t / e.clu.SoCs[e.socs[i]].Throttle
	}
	for i, f := range e.hops {
		f.Bytes = float64(e.Stages[i].OutElems) * e.actScale * 4 * float64(batch)
		p.Transfers[i] = e.clu.Simulate(e.hops[i : i+1])
	}
	p.Latency, p.Bottleneck = 0, 0
	for _, ts := range [2][]float64{p.Stages, p.Transfers} {
		for _, t := range ts {
			p.Latency += t
			if t > p.Bottleneck {
				p.Bottleneck = t
			}
		}
	}
	return p
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
