package core

import (
	"context"
	"math"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

// SyncSGD is the shared engine behind the fully synchronous baselines
// (PS, Ring-AllReduce, HiPress, 2D parallelism): all M SoCs act as one
// data-parallel worker pool that synchronizes every batch, so the
// functional computation is exactly single-model SGD on the global
// batch — which is why the paper's Table 3 shows identical convergence
// accuracy for these four baselines. They differ only in how the
// per-iteration synchronization and compute are priced, and in the
// optional gradient compression.
type SyncSGD struct {
	// StrategyName labels results ("PS", "RING", ...).
	StrategyName string
	// SyncTime prices one per-batch synchronization across the fleet.
	SyncTime func(clu *cluster.Cluster, spec *nn.Spec) float64
	// ComputeTime prices one iteration of per-SoC gradient computation;
	// nil uses plain CPU FP32 on batch/M samples.
	ComputeTime func(clu *cluster.Cluster, spec *nn.Spec, batch int) float64
	// ComputeOverhead adds a fixed per-iteration cost (HiPress top-k
	// selection).
	ComputeOverhead float64
	// Compressor, when set, passes the aggregate gradient through
	// DGC-style top-k with error feedback before the optimizer step.
	Compressor *collective.TopKCompressor
}

// Name implements Strategy.
func (s *SyncSGD) Name() string { return s.StrategyName }

// Run implements Strategy. The single shared model makes this strategy
// sequential at the batch level; host parallelism comes from the tensor
// kernels inside each forward/backward pass.
func (s *SyncSGD) Run(ctx context.Context, job *Job, clu *cluster.Cluster) (*Result, error) {
	return runEpochs(ctx, s.Name(), job, clu, s.build)
}

func (s *SyncSGD) build(job *Job, clu *cluster.Cluster, res *Result, meter *cluster.EnergyMeter) ([]*replica, epochAttempt, error) {
	m := clu.Config.NumSoCs
	root := tensor.NewRNG(job.Seed)
	rep := &replica{model: job.BuildModel(root), opt: nn.NewSGD(job.LR, job.Momentum, 0)}
	params := rep.model.Params()
	if s.Compressor != nil && job.MaxEpochRetries > 0 {
		// Error-feedback residuals are optimizer state a retry must roll
		// back. They are created on first use; compressing a zero
		// gradient creates the same zero residual now, so the snapshot
		// can hold it.
		for pi, p := range params {
			if s.Compressor.Residual(pi) == nil {
				s.Compressor.Compress(pi, tensor.New(p.Grad.Shape...))
			}
			rep.extra = append(rep.extra, s.Compressor.Residual(pi))
		}
	}

	// One iterator walks the whole training set and is kept across
	// epochs; it stands at the start of `at`.
	var it *dataset.BatchIterator
	at := -1

	// Per-iteration pricing is constant across the run.
	perSoCBatch := job.PricingBatch() / m
	if perSoCBatch < 1 {
		perSoCBatch = 1
	}
	var computeT float64
	if s.ComputeTime != nil {
		computeT = s.ComputeTime(clu, job.Spec, job.PricingBatch())
	} else {
		computeT = clu.StepTime(0, job.Spec, perSoCBatch, cluster.CPU)
	}
	computeT += s.ComputeOverhead
	syncT := s.SyncTime(clu, job.Spec)
	upd := autoplan.UpdateSeconds(job.Spec)
	// Layer-wise overlap (§4.1, applied to every baseline "if
	// applicable"): the gradient transfer hides behind the backward
	// pass that produces it.
	iterT := math.Max(computeT+upd, (1-autoplan.OverlapFraction)*computeT+syncT)
	paperIters := job.PaperSamples / job.PricingBatch()
	if paperIters < 1 {
		paperIters = 1
	}
	epochT := float64(paperIters) * iterT

	return []*replica{rep}, func(ctx context.Context, epoch int) (float64, int) {
		if at != epoch {
			// A resumed or retried epoch: rebuild the stream and replay
			// it up to this epoch's first batch.
			it = dataset.NewBatchIterator(job.Train, job.GlobalBatch, job.Seed+100)
			for skip := epoch * it.BatchesPerEpoch(); skip > 0; skip-- {
				it.Next()
			}
		}
		at = epoch + 1
		iters := it.BatchesPerEpoch()
		for i := 0; i < iters; i++ {
			if ctx.Err() != nil {
				return 0, 0
			}
			x, labels := it.Next()
			lossBackward(rep.model, x, labels)
			if s.Compressor != nil {
				for pi, p := range params {
					sg := s.Compressor.Compress(pi, p.Grad)
					sg.DenseInto(p.Grad)
				}
			}
			rep.opt.Step(params)
		}

		for soc := 0; soc < m; soc++ {
			meter.AddCompute(soc, float64(paperIters)*computeT, cluster.CPU)
			meter.AddComm(soc, float64(paperIters)*syncT)
		}
		res.Breakdown.Compute += float64(paperIters) * computeT * float64(m)
		res.Breakdown.Sync += float64(paperIters) * syncT * float64(m)
		res.Breakdown.Update += float64(paperIters) * upd * float64(m)
		return epochT, 0
	}, nil
}

// AllSoCs returns [0, 1, ..., n-1], the member list for fleet-wide
// collectives.
func AllSoCs(clu *cluster.Cluster) []int { return autoplan.AllNodes(clu.Config.NumSoCs) }
