package core

import (
	"context"
	"fmt"

	"socflow/internal/cluster"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

// Pipeline executes an auto-parallelization plan's pipeline track:
// each logical group streams GPipe-style micro-batches through a
// chain of model stages placed on its member SoCs, so gradients never
// cross the wire inside an iteration — each stage's parameters live
// and update where they are — and groups average weights once per
// epoch (delayed aggregation, like SoCFlow's cross-group step).
//
// Dual-track like every strategy here: the functional math runs the
// full micro model per group with true micro-batch accumulation
// (ZeroGrad once, backward-accumulated gradients scaled to the
// full-batch mean — bit-reproducible from the seed and independent of
// where the stage cut lands, since fused execution is bit-identical
// by construction), while the performance track prices the plan with
// the exact Pricer the planner searched with. Prediction and
// execution are one formula.
type Pipeline struct {
	// Plan is the searched (or hand-built) pipeline plan. Required;
	// Mode must be ModePipeline.
	Plan *autoplan.Plan
}

// Name implements Strategy.
func (s *Pipeline) Name() string { return "Pipeline" }

// Run implements Strategy.
func (s *Pipeline) Run(ctx context.Context, job *Job, clu *cluster.Cluster) (*Result, error) {
	return runOne(ctx, job, clu, s)
}

// trainingKey is nil: a pipeline run trains alone.
func (s *Pipeline) trainingKey(*cluster.Cluster) any { return nil }

// build validates the plan against the cluster, builds one full-model
// replica per group — the stage cut moves simulated time around, never
// the math — and returns the pipeline's training and price.
func (s *Pipeline) build(job *Job, clu *cluster.Cluster, _ *training, res *Result, meter *cluster.EnergyMeter) (*training, epochPrice, error) {
	p := s.Plan
	if p == nil {
		return nil, nil, fmt.Errorf("core: Pipeline needs a plan (run plan.Search or pass one)")
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Mode != autoplan.ModePipeline {
		return nil, nil, fmt.Errorf("core: Pipeline got a %q plan; use SyncSGD/SoCFlow for data-parallel plans", p.Mode)
	}
	if m := clu.Config.NumSoCs; p.NumSoCs != m {
		return nil, nil, fmt.Errorf("core: plan searched for %d SoCs, cluster has %d", p.NumSoCs, m)
	}
	n := p.Groups()
	d := p.Depth()

	root := tensor.NewRNG(job.Seed)
	ref := job.BuildModel(root)
	groups := make([]*replica, n)
	for g := range groups {
		groups[g] = newReplica(job, root.Split(uint64(g)+10), ref)
	}
	// Same data schedule as SoCFlow, so plans with equal group counts
	// see equal data.
	sched := &dataset.Schedule{Train: job.Train, Batch: job.GlobalBatch, Seed: job.Seed}

	// Performance track: the planner's own pricer, reused every epoch.
	pricer := autoplan.NewPricer(clu, job.Spec)
	iters := p.IterationsPerEpoch(job.PaperSamples)
	crossSync := pricer.CrossGroupSyncSeconds(p)
	mb := p.Batch / p.MicroBatches
	if mb < 1 {
		mb = 1
	}
	reg := job.Metrics
	var simNow float64

	tr := &training{reps: groups, attempt: func(ctx context.Context, epoch int) int {
		// Functional training: every group walks its shard once with
		// GPipe accumulation. Groups interact only at epoch-end
		// averaging, so they run concurrently; per-group math is
		// unchanged by the parallelism, so results stay bit-identical.
		its := make([]*dataset.BatchIterator, n)
		for g := range its {
			its[g] = sched.Iterator(n, g, epoch)
		}
		steps := sched.Steps(n, epoch)
		job.fanOut(n, func(g int) {
			for i := 0; i < steps; i++ {
				if ctx.Err() != nil {
					return
				}
				x, labels := its[g].Next()
				gpipeStep(groups[g].model, groups[g].opt, x, labels, p.MicroBatches)
			}
		})
		if ctx.Err() != nil {
			return 0
		}

		// Delayed aggregation across groups, once per epoch.
		if n > 1 {
			averageReplicas(groups)
		}
		return 0
	}}

	return tr, func() float64 {
		// Performance track: groups run in parallel, so the epoch spans
		// the slowest group's iteration schedule plus the sequential
		// cross-group stage rings.
		fIters := float64(iters)
		fM := float64(p.MicroBatches)
		span := crossSync
		timings := make([]autoplan.Timing, n)
		for g := range groups {
			timings[g] = pricer.GroupTiming(p, g)
			if t := fIters*timings[g].IterSeconds + crossSync; t > span {
				span = t
			}
		}
		var simBytes float64
		for g := range groups {
			t := timings[g]
			var groupCompute float64
			for i := 0; i < d; i++ {
				soc := p.Placement[g][i]
				busy := fIters * fM * t.StageSeconds[i]
				var comm float64
				if i > 0 {
					comm += fIters * fM * t.XferSeconds[i-1]
				}
				if i < d-1 {
					comm += fIters * fM * t.XferSeconds[i]
				}
				comm += crossSync
				meter.AddCompute(soc, busy, cluster.CPU)
				meter.AddComm(soc, comm)
				if idle := span - busy - comm; idle > 0 {
					meter.AddIdle(soc, idle)
				}
				groupCompute += busy
				res.Breakdown.Sync += comm
			}
			// Members beyond the pipeline depth hold no stage.
			for i := d; i < len(p.Placement[g]); i++ {
				meter.AddIdle(p.Placement[g][i], span)
			}
			res.Breakdown.Compute += groupCompute
			res.Breakdown.Update += fIters * t.UpdateSeconds
			if reg != nil {
				comp := fIters * fM * t.Bottleneck
				reg.AddSimSpan("compute", "sim.group", g, simNow, comp,
					map[string]float64{"iters": fIters, "micro": fM, "depth": float64(d)})
				reg.AddSimSpan("sync", "sim.group", g, simNow+comp, crossSync, nil)
				for i := 0; i < d-1; i++ {
					// Forward activations and backward input-gradients per
					// micro-batch, both directions.
					simBytes += fIters * fM * 2 * float64(p.Stages[i].OutElems) * pricer.ActScale * 4 * float64(mb)
				}
			}
		}
		if reg != nil {
			if n > 1 {
				// Cross-group stage rings: each moves 2(n-1) · its slice.
				simBytes += 2 * float64(n-1) * float64(job.Spec.GradBytes())
			}
			reg.Counter("sim.net.bytes").Add(int64(simBytes))
			PublishPlanDrift(reg, pricer.EpochSeconds(p, job.PaperSamples), span)
		}
		simNow += span
		return span
	}, nil
}

// gpipeStep runs one GPipe mini-batch: gradients are zeroed once,
// each micro-batch's backward pass accumulates into them with the
// loss gradient pre-scaled by the micro-batch's share — backward is
// linear in the output gradient, so the accumulated total is exactly
// the full-batch mean gradient — and the optimizer steps once.
// Batch-norm layers see micro-batch statistics, faithful GPipe
// semantics (which is why the planner floors micro-batches at two
// samples). Returns the batch's mean loss.
func gpipeStep(model *nn.Sequential, opt *nn.SGD, x *tensor.Tensor, labels []int, micro int) float32 {
	bs := x.Shape[0]
	if micro > bs {
		micro = bs
	}
	if micro <= 1 {
		return plainStep(model, opt, x, labels)
	}
	model.ZeroGrad()
	var lossSum float32
	for mbi := 0; mbi < micro; mbi++ {
		lo := mbi * bs / micro
		hi := (mbi + 1) * bs / micro
		if lo == hi {
			continue
		}
		mx := tensor.Rows(x, lo, hi)
		logits := model.Forward(mx, true)
		loss, g := nn.SoftmaxCrossEntropy(logits, labels[lo:hi])
		share := float32(hi-lo) / float32(bs)
		tensor.Scale(share, g)
		model.Backward(g)
		lossSum += loss * share
	}
	opt.Step(model.Params())
	return lossSum
}
