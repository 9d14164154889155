package core

import (
	"context"
	"fmt"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

// Job describes one training job: the paper-scale model/dataset pair
// that the performance track prices, and the micro functional
// model/dataset the convergence track actually trains.
type Job struct {
	// Spec is the paper-scale model (communication volume, FLOPs).
	Spec *nn.Spec
	// Train and Val are the micro functional datasets.
	Train, Val *dataset.Dataset
	// PaperSamples is the paper-scale training-set size used to price
	// an epoch (e.g. 50 000 for CIFAR-10).
	PaperSamples int
	// GlobalBatch is BS_g: the per-logical-group global batch size
	// (64 for most models, 256 for MobileNet in the paper's eval).
	GlobalBatch int
	// PaperBatch is the batch size used by the performance track when
	// the functional track must run a smaller batch to keep several
	// iterations per micro epoch (0 = same as GlobalBatch).
	PaperBatch int
	// LR and Momentum configure SGD.
	LR, Momentum float32
	// LRSchedule optionally decays the learning rate per epoch (nil
	// keeps LR constant).
	LRSchedule nn.LRSchedule
	// Epochs is the number of functional epochs to run.
	Epochs int
	// TargetAccuracy stops training early once validation accuracy
	// reaches it (0 disables early stopping).
	TargetAccuracy float64
	// Seed makes the whole run reproducible.
	Seed uint64
	// EpochEnd, when non-nil, is invoked by every strategy after each
	// functional epoch (or federated round) with the 0-based epoch, the
	// validation accuracy, and the simulated epoch time. It runs on the
	// strategy's goroutine, outside any parallel section, so it may
	// write logs or cancel the run's context.
	EpochEnd func(epoch int, acc, simSeconds float64)
	// Metrics, when non-nil, receives the run's observability stream:
	// dual-clock epoch observations, simulated-timeline spans, and the
	// sim.* counters and gauges. Nil disables instrumentation at zero
	// cost (every metrics method is a no-op on nil receivers).
	Metrics *metrics.Registry
	// Kernels, when non-nil, tracks every model the job builds, so the
	// run's registry receives this run's kernel counts alone.
	Kernels *KernelHarvest
	// Width caps how many logical groups or federated clients train at
	// once (0: the process pool's width). It is the run's own value, so
	// concurrent runs at different widths never see each other's; seeded
	// results are bit-identical at every width.
	Width int
	// Checkpoints, when non-nil, receives periodic automatic
	// checkpoints from the strategy at epoch boundaries; pair it with
	// the store's KeepLast retention so long campaigns cannot fill the
	// disk.
	Checkpoints *CheckpointStore
	// CheckpointEvery is the epoch stride between automatic
	// checkpoints (<=1 checkpoints every epoch when Checkpoints is
	// set). The final epoch is always checkpointed.
	CheckpointEvery int
	// MaxEpochRetries bounds how many times a failed epoch is re-run
	// from its start-of-epoch snapshot before the run aborts (0
	// disables retrying: any epoch failure is fatal).
	MaxEpochRetries int
	// RetryBackoff is the base pause before re-running a failed epoch;
	// attempt k waits k*RetryBackoff.
	RetryBackoff time.Duration
	// EpochFault, when non-nil, is consulted after each epoch attempt
	// with the 0-based epoch and attempt number; a non-nil return
	// marks the attempt failed. It exists to inject failures —
	// preempted windows, flaky storage — into the retry machinery;
	// non-finite weights are detected as failures regardless.
	EpochFault func(epoch, attempt int) error
	// StartEpoch is the first epoch index to run (0 trains from
	// scratch). The control plane sets it when resuming a parked job so
	// epoch numbering, the LR schedule, and early-stop bookkeeping
	// continue from where the job left off instead of restarting.
	StartEpoch int
	// Resume, when non-nil, seeds every replica from a parked
	// checkpoint (weights plus layer state) before training starts.
	// Pair it with StartEpoch = Resume.Epoch; momentum restarts, as it
	// would on a real on-SoC resume.
	Resume *Checkpoint
	// ShouldPark, when non-nil, is polled at each epoch boundary. When
	// it returns true the strategy stops cleanly: the result is marked
	// Parked, carries the epochs finished so far, and FinalWeights /
	// FinalState hold the snapshot a scheduler needs to checkpoint and
	// later resume the job (the checkpoint-based preemption of §3,
	// lifted from one logical group to the whole job).
	ShouldPark func() bool
}

// epochEnd is the funnel every strategy reports epochs through: it
// stamps the epoch on both clocks via the metrics registry, then
// invokes the EpochEnd hook if one is installed. The registry's event
// subscribers run here too — on the strategy goroutine, between
// epochs — which is what lets a trace writer cancel the run cleanly.
func (j *Job) epochEnd(epoch int, acc, simSeconds float64) {
	j.Metrics.ObserveEpoch(epoch, acc, simSeconds)
	if j.EpochEnd != nil {
		j.EpochEnd(epoch, acc, simSeconds)
	}
}

// fanOut runs fn for each of n groups or clients, at most Width at a
// time, and records that width as the run's parallel.width gauge.
func (j *Job) fanOut(n int, fn func(i int)) {
	w := j.Width
	if w < 1 {
		w = parallel.Workers()
	}
	j.Metrics.Gauge("parallel.width").Set(float64(w))
	parallel.DoWidth(j.Width, n, fn)
}

// PricingBatch returns the batch size the performance track prices
// with: PaperBatch when set, else GlobalBatch.
func (j *Job) PricingBatch() int {
	if j.PaperBatch > 0 {
		return j.PaperBatch
	}
	return j.GlobalBatch
}

// EpochLR returns the learning rate for an epoch under the job's
// schedule (or the base LR).
func (j *Job) EpochLR(epoch int) float32 {
	if j.LRSchedule != nil {
		return j.LRSchedule.LR(epoch)
	}
	return j.LR
}

// BuildModel constructs a fresh micro model replica for this job and
// tracks it in the job's kernel harvest.
func (j *Job) BuildModel(r *tensor.RNG) *nn.Sequential {
	return j.Kernels.Track(j.Spec.BuildMicro(r, j.Train.Channels(), j.Train.ImageSize(), j.Train.Classes))
}

// Validate checks the job for obvious misconfiguration.
func (j *Job) Validate() error {
	switch {
	case j.Spec == nil:
		return fmt.Errorf("core: job has no model spec")
	case j.Train == nil || j.Val == nil:
		return fmt.Errorf("core: job has no data")
	case j.GlobalBatch <= 0:
		return fmt.Errorf("core: global batch %d", j.GlobalBatch)
	case j.Epochs <= 0:
		return fmt.Errorf("core: epochs %d", j.Epochs)
	case j.LR <= 0:
		return fmt.Errorf("core: learning rate %v", j.LR)
	case j.PaperSamples <= 0:
		return fmt.Errorf("core: paper samples %d", j.PaperSamples)
	}
	return nil
}

// Breakdown splits simulated time into the Fig. 12 categories.
type Breakdown struct {
	// Compute is gradient computation time.
	Compute float64
	// Sync is gradient/weight synchronization (network) time.
	Sync float64
	// Update is optimizer parameter-update time.
	Update float64
}

// Total returns the sum of the components.
func (b Breakdown) Total() float64 { return b.Compute + b.Sync + b.Update }

// Result captures everything an experiment needs from one run.
type Result struct {
	// Strategy is the name of the strategy that produced the result.
	Strategy string
	// EpochAccuracies is validation accuracy after each functional
	// epoch.
	EpochAccuracies []float64
	// FinalAccuracy is the last epoch's validation accuracy; Best is
	// the maximum seen.
	FinalAccuracy, BestAccuracy float64
	// SimSeconds is the simulated wall time of the epochs actually run
	// (paper-scale compute and communication).
	SimSeconds float64
	// EpochSimSeconds is the simulated time of each epoch.
	EpochSimSeconds []float64
	// EnergyJ is the fleet energy in joules over SimSeconds.
	EnergyJ float64
	// Breakdown attributes SimSeconds to compute/sync/update.
	Breakdown Breakdown
	// EpochsToTarget is the 1-based functional epoch at which
	// TargetAccuracy was first reached (0 = never).
	EpochsToTarget int
	// SimSecondsToTarget is the simulated time up to that epoch.
	SimSecondsToTarget float64
	// Preemptions counts logical-group preemptions served (co-location
	// experiments).
	Preemptions int
	// FinalWeights and FinalState are deep copies of the trained
	// model's tensors, so callers — the control plane's park path
	// among them — can checkpoint and warm-start.
	FinalWeights, FinalState []*tensor.Tensor
	// EpochRetries counts epoch re-runs taken from start-of-epoch
	// snapshots after detected failures (Job.MaxEpochRetries budget).
	EpochRetries int
	// Parked reports that the run stopped early at an epoch boundary
	// because Job.ShouldPark asked it to — a scheduler preemption, not
	// a failure. EpochAccuracies covers only the epochs actually run;
	// FinalWeights/FinalState are the state to checkpoint for resume.
	Parked bool
}

// observe appends an epoch observation and handles target bookkeeping.
func (r *Result) observe(acc float64, epochTime float64, target float64) {
	r.EpochAccuracies = append(r.EpochAccuracies, acc)
	r.EpochSimSeconds = append(r.EpochSimSeconds, epochTime)
	r.SimSeconds += epochTime
	r.FinalAccuracy = acc
	if acc > r.BestAccuracy {
		r.BestAccuracy = acc
	}
	if target > 0 && r.EpochsToTarget == 0 && acc >= target {
		r.EpochsToTarget = len(r.EpochAccuracies)
		r.SimSecondsToTarget = r.SimSeconds
	}
}

// done reports whether early stopping should trigger.
func (r *Result) done(target float64) bool {
	return target > 0 && r.EpochsToTarget > 0
}

// MeanEpochSimSeconds returns the average simulated epoch time.
func (r *Result) MeanEpochSimSeconds() float64 {
	if len(r.EpochSimSeconds) == 0 {
		return 0
	}
	return r.SimSeconds / float64(len(r.EpochSimSeconds))
}

// publishResult pushes a finished run's simulated totals into the
// job's registry: run counts, simulated seconds, the Fig. 12 breakdown
// attribution, and preemptions. Gauges accumulate, so a registry shared
// across runs (the bench grid) reports grid totals.
func publishResult(reg *metrics.Registry, res *Result) {
	if reg == nil {
		return
	}
	reg.Counter("sim.runs").Inc()
	reg.Gauge("sim.seconds.total").Add(res.SimSeconds)
	reg.Gauge("sim.breakdown.compute.seconds").Add(res.Breakdown.Compute)
	reg.Gauge("sim.breakdown.sync.seconds").Add(res.Breakdown.Sync)
	reg.Gauge("sim.breakdown.update.seconds").Add(res.Breakdown.Update)
	if res.Preemptions > 0 {
		reg.Counter("sim.preemptions").Add(int64(res.Preemptions))
	}
}

// PublishPlanDrift sets the plan.* gauges for one executed epoch: the
// planner's price of the plan the run executes, the epoch the run
// executed, and their difference.
func PublishPlanDrift(reg *metrics.Registry, predicted, executed float64) {
	reg.Gauge("plan.predicted_epoch_seconds").Set(predicted)
	reg.Gauge("plan.executed_epoch_seconds").Set(executed)
	reg.Gauge("plan.drift_seconds").Set(executed - predicted)
}

// Strategy is a distributed training method (SoCFlow or a baseline).
type Strategy interface {
	// Name returns the display name used in experiment tables.
	Name() string
	// Run trains the job on the cluster and reports the result. It
	// checks ctx between training iterations and returns ctx.Err()
	// promptly after cancellation.
	Run(ctx context.Context, job *Job, clu *cluster.Cluster) (*Result, error)
}

// EvalAccuracy computes the accuracy of a model on a dataset in eval
// mode, batching to bound peak memory. Both clocks' tracks report
// epochs through it: the simulated strategies' driver and the mesh
// runtime's leader.
func EvalAccuracy(model *nn.Sequential, val *dataset.Dataset) float64 {
	const bs = 64
	correct, total := 0, 0
	var idx []int
	var x *tensor.Tensor
	var labels []int
	for lo := 0; lo < val.Len(); lo += bs {
		hi := lo + bs
		if hi > val.Len() {
			hi = val.Len()
		}
		if cap(idx) < hi-lo {
			idx = make([]int, hi-lo)
		}
		idx = idx[:hi-lo]
		for i := range idx {
			idx[i] = lo + i
		}
		x, labels = val.BatchInto(x, labels, idx)
		logits := model.Forward(x, false)
		preds := tensor.ArgmaxRows(logits)
		for i, p := range preds {
			if p == labels[i] {
				correct++
			}
		}
		total += len(labels)
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
