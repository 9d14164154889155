// Package socflow is a Go reproduction of "SoCFlow: Efficient and
// Scalable DNN Training on SoC-Clustered Edge Servers" (ASPLOS 2024).
//
// SoCFlow trains DNN models on edge servers built from tens of mobile
// SoCs by (1) dividing the SoCs into logical groups that synchronize
// per batch over Ring-AllReduce and aggregate across groups only once
// per epoch, with an integrity-greedy logical-to-physical mapping and
// contention-free communication-group scheduling, and (2) splitting
// every mini-batch between the mobile CPU (FP32) and NPU (INT8) with a
// confidence/compute-ratio controller.
//
// Because the original system needs a physical Snapdragon 865 cluster,
// this package runs on a dual-track simulation: the training math
// (SGD, INT8 quantization, topology-faithful aggregation) is executed
// for real on micro-scale models and synthetic datasets, while time and
// energy come from a discrete-event model of the SoC-Cluster calibrated
// to the paper's measurements. See DESIGN.md for the substitution
// table and EXPERIMENTS.md for paper-vs-measured results.
//
// Quickstart:
//
//	report, err := socflow.Run(ctx, socflow.Config{
//		JobSpec: socflow.JobSpec{Model: "vgg11", Dataset: "cifar10", Epochs: 10},
//		NumSoCs: 32,
//		Groups:  8,
//	}, socflow.WithParallelism(runtime.NumCPU()))
package socflow

import (
	"context"
	"fmt"
	"os"
	"slices"

	"socflow/internal/baselines"
	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/plan"
	"socflow/internal/server"
)

// JobSpec holds the fields shared by every entry point: model,
// dataset, epochs, batch, SGD hyperparameters, seed, and micro-dataset
// sizes. Config and DistributedConfig both embed it.
type JobSpec = core.JobSpec

// defaultRunSpec fills Config's zero JobSpec fields.
var defaultRunSpec = JobSpec{
	Model:        "vgg11",
	Dataset:      "cifar10",
	Epochs:       10,
	GlobalBatch:  16,
	LR:           0.02,
	Momentum:     0.9,
	Seed:         1,
	TrainSamples: 768,
	ValSamples:   128,
}

// Config describes a training run. Zero values select sensible
// defaults (noted per field).
type Config struct {
	// JobSpec carries the shared job fields. Defaults: Model "vgg11"
	// (one of Models()), Dataset "cifar10" (one of Datasets()),
	// Epochs 10, GlobalBatch 16 (functional mini-batch per logical
	// group, sized to the micro datasets), LR 0.02, Momentum 0.9,
	// Seed 1, TrainSamples 768, ValSamples 128.
	JobSpec
	// Strategy is one of Strategies(): "socflow" (default), "ps",
	// "ring", "hipress", "2dparal", "fedavg", "tfedavg".
	Strategy string
	// NumSoCs is the fleet size (default 32, the paper's main setting).
	NumSoCs int
	// Groups is SoCFlow's logical-group count N (default 8; ignored by
	// baselines). Set to -1 to let the warm-up heuristic pick N
	// (§3.1's first-epoch-accuracy knee rule). Data parallelism needs
	// Groups <= NumSoCs; auto and pipeline take it as a cap.
	Groups int
	// Mixed selects SoCFlow's processor mode: "auto" (default),
	// "fp32", "int8", "half".
	Mixed string
	// Parallelism selects how the batch is split across a logical
	// group's SoCs (strategy "socflow" only):
	//
	//   - "" or "data": data-parallel SSGD (the paper's protocol);
	//   - "auto": the auto-parallelization planner (internal/plan)
	//     searches group count × pipeline depth × placement over the
	//     simnet cost model and runs whichever hybrid prices fastest —
	//     Groups caps the group count it may spend;
	//   - "pipeline": the planner restricted to pipeline-parallel
	//     candidates (GPipe-style micro-batching, stage parameters
	//     resident on their SoC, no per-iteration gradient traffic).
	//
	// Like every config field — and unlike options — this changes what
	// the run computes: pipeline plans see micro-batch batch-norm
	// statistics and per-epoch (not per-iteration) group averaging.
	Parallelism string
	// PaperBatch is the batch size the performance track prices
	// (default 64, the paper's BS_g; 256 for MobileNet).
	PaperBatch int
	// TargetAccuracy stops early when validation accuracy reaches it.
	TargetAccuracy float64
	// Generation selects the SoC silicon: "sd865" (default) or
	// "sd8gen1".
	Generation string
}

func (c Config) withDefaults() Config {
	c.JobSpec = c.JobSpec.WithDefaults(defaultRunSpec)
	if c.Strategy == "" {
		c.Strategy = "socflow"
	}
	if c.NumSoCs == 0 {
		c.NumSoCs = 32
	}
	if c.Groups == 0 {
		c.Groups = 8
	}
	if c.Groups < 0 {
		c.Groups = -1 // auto via the warm-up heuristic
	}
	if c.Mixed == "" {
		c.Mixed = "auto"
	}
	if c.PaperBatch == 0 {
		c.PaperBatch = 64
	}
	if c.Generation == "" {
		c.Generation = "sd865"
	}
	return c
}

// Models returns the model catalog (Table 2 of the paper).
func Models() []string { return nn.ModelNames() }

// Datasets returns the dataset catalog (Table 2 of the paper).
func Datasets() []string { return dataset.Names() }

// Strategies returns the available strategies: SoCFlow plus the six
// baselines of §4.1.
func Strategies() []string {
	return []string{"socflow", "ps", "ring", "hipress", "2dparal", "fedavg", "tfedavg"}
}

// Report is the outcome of a run.
type Report struct {
	// Strategy is the strategy that produced the report.
	Strategy string
	// Model and Dataset echo the configuration.
	Model, Dataset string
	// EpochAccuracies is validation accuracy after each epoch.
	EpochAccuracies []float64
	// FinalAccuracy and BestAccuracy summarize convergence.
	FinalAccuracy, BestAccuracy float64
	// SimSeconds is the simulated wall time of the run at paper scale.
	SimSeconds float64
	// MeanEpochSeconds is the average simulated epoch time.
	MeanEpochSeconds float64
	// EnergyKJ is the fleet training energy in kilojoules.
	EnergyKJ float64
	// ComputeSeconds, SyncSeconds, UpdateSeconds attribute the
	// fleet-aggregated simulated time (Fig. 12's breakdown).
	ComputeSeconds, SyncSeconds, UpdateSeconds float64
	// EpochsToTarget and SimSecondsToTarget are set when
	// TargetAccuracy was reached.
	EpochsToTarget     int
	SimSecondsToTarget float64
	// EstimatedHoursToConverge extrapolates end-to-end training time to
	// the paper-scale epoch count of the model.
	EstimatedHoursToConverge float64
	// Preemptions counts logical-group preemptions served.
	Preemptions int
	// Metrics is a snapshot of the run's observability registry —
	// counters, gauges, histograms, dual-clock epoch stats, and spans —
	// when WithMetrics, WithTrace, or WithLogger was used (nil
	// otherwise). Export it with WriteJSON or WriteChromeTrace.
	Metrics *metrics.RunReport
}

// Run executes one training run per the configuration. Cancelling ctx
// stops training between iterations and returns ctx.Err(). Options
// tune execution (parallelism, tracing, logging) without changing
// results: seeded runs are bit-identical at every parallelism level.
//
// Run is a submit-and-wait wrapper over the in-process control plane:
// the job flows through the same scheduler as Client.Submit and a
// `socflow server` daemon, against an unbounded cluster so it starts
// immediately. For concurrent jobs, quotas, priorities, and preemption,
// use NewServer/Client directly.
func Run(ctx context.Context, cfg Config, opts ...Option) (*Report, error) {
	h, err := defaultClient().Submit(ctx, cfg, opts...)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// admitTrain applies Config's defaults and runs every training check.
// A field is checked where the run reads it: baselines ignore Mixed and
// Groups; pipeline plans ignore Mixed; pipeline and auto take Groups as
// a cap; and WithPlan overrides Strategy, Parallelism and Groups.
func admitTrain(cfg Config, o runOptions) (Config, catalog, error) {
	cfg = cfg.withDefaults()
	cat, err := resolve(cfg.Model, cfg.Dataset, cfg.Generation)
	if err != nil {
		return cfg, cat, err
	}
	if err := checkJob(cfg.JobSpec, cfg.NumSoCs); err != nil {
		return cfg, cat, err
	}
	if o.plan != nil {
		_, err := strategyFromPlan(cfg, o.plan)
		return cfg, cat, err
	}
	if !slices.Contains(Strategies(), cfg.Strategy) {
		return cfg, cat, fmt.Errorf("%w: %q (have %v)", ErrUnknownStrategy, cfg.Strategy, Strategies())
	}
	switch cfg.Parallelism {
	case "", "data":
	case "auto", "pipeline":
		if cfg.Strategy != "socflow" {
			return cfg, cat, fmt.Errorf("%w: Parallelism %q requires strategy \"socflow\", got %q",
				ErrUnknownParallelism, cfg.Parallelism, cfg.Strategy)
		}
	default:
		return cfg, cat, fmt.Errorf("%w: %q (have \"\", data, auto, pipeline)", ErrUnknownParallelism, cfg.Parallelism)
	}
	if cfg.Strategy != "socflow" {
		return cfg, cat, nil
	}
	if cfg.Parallelism != "pipeline" {
		if _, err := mixedMode(cfg.Mixed); err != nil {
			return cfg, cat, err
		}
	}
	if cfg.Parallelism != "auto" && cfg.Parallelism != "pipeline" && cfg.Groups > cfg.NumSoCs {
		return cfg, cat, fmt.Errorf("%w: Groups %d: data-parallel groups need a SoC each, and there are %d (pipeline and auto take Groups as a cap)",
			ErrBadOption, cfg.Groups, cfg.NumSoCs)
	}
	return cfg, cat, nil
}

// buildTrain compiles an admitted Config into the scheduler's runner.
// The dataset is generated once, here; the strategy (with any plan
// search or group-count warm-up) is chosen once, by the first segment.
// An uninterrupted job runs exactly the pre-control-plane Run sequence,
// so it is bit-identical to the old direct path; across park/resume
// segments it accumulates one merged report.
func buildTrain(cfg Config, cat catalog, o runOptions) (runner, error) {
	job := trainJob(cfg, cat)
	job.Width = o.parallelism
	probe := *job // the warm-up trains copies of the job without its hooks
	clu := cat.cluster(cfg.NumSoCs)
	store, err := o.checkpointStore()
	if err != nil {
		return runner{}, err
	}
	if store != nil {
		job.Checkpoints = store
		job.CheckpointEvery = o.checkpointEvery
	}
	if o.recovery {
		job.MaxEpochRetries = o.maxRetries
		job.RetryBackoff = o.retryBackoff
	}

	// State carried across park/resume segments.
	var (
		strat     core.Strategy
		acc       accumulatedRun
		parkDir   string
		parkStore *core.CheckpointStore
	)

	run := func(ctx context.Context, ctl *server.Controller, obs observed) (any, error) {
		job.Metrics = obs.reg
		job.EpochEnd = func(epoch int, _, _ float64) { ctl.ObserveEpoch(epoch) }
		job.StartEpoch = 0
		job.Resume = nil
		if ctl.StartEpoch() > 0 && parkStore != nil {
			cp, err := parkStore.Latest()
			if err != nil {
				return nil, fmt.Errorf("socflow: loading park checkpoint: %w", err)
			}
			if cp != nil {
				job.Resume = cp
				job.StartEpoch = cp.Epoch
			}
		}
		job.ShouldPark = ctl.ParkRequested

		if strat == nil {
			s, err := trainStrategy(ctx, cfg, cat, o, &probe)
			if err != nil {
				return nil, err
			}
			strat = s
			o.logf("run: %s on %s/%s, %d SoCs", strat.Name(), cfg.Model, cfg.Dataset, cfg.NumSoCs)
		} else {
			o.logf("resume: %s on %s/%s from epoch %d", strat.Name(), cfg.Model, cfg.Dataset, job.StartEpoch)
		}

		job.Kernels = core.BeginKernelHarvest(obs.user)
		span := obs.reg.BeginSpan("run", "facade", 0)
		res, err := strat.Run(ctx, job, clu)
		span.End()
		job.Kernels.Finish()
		if err != nil {
			return nil, err
		}
		acc.add(job.StartEpoch, res)

		if res.Parked {
			if parkStore == nil {
				if parkDir == "" {
					parkDir, err = os.MkdirTemp("", "socflow-park-*")
					if err != nil {
						return nil, fmt.Errorf("socflow: park directory: %w", err)
					}
				}
				parkStore, err = core.NewCheckpointStore(parkDir)
				if err != nil {
					return nil, err
				}
				parkStore.KeepLast = 2
			}
			cp := &core.Checkpoint{
				Epoch:   job.StartEpoch + len(res.EpochAccuracies),
				Weights: res.FinalWeights,
				State:   res.FinalState,
			}
			if err := parkStore.Save(cp); err != nil {
				return nil, fmt.Errorf("socflow: saving park checkpoint: %w", err)
			}
			return nil, server.ErrParked
		}

		rep := acc.report(cfg, job)
		rep.Metrics = obs.user.Snapshot()
		return rep, nil
	}

	return runner{
		socs:        cfg.NumSoCs,
		epochs:      cfg.Epochs,
		preemptible: true,
		run:         run,
		cleanup: func() {
			if parkDir != "" {
				os.RemoveAll(parkDir)
			}
		},
	}, nil
}

// trainJob builds the core job of an admitted Config.
func trainJob(cfg Config, cat catalog) *core.Job {
	train, val := cat.split(cfg.JobSpec)
	return &core.Job{
		Spec:           cat.spec,
		Train:          train,
		Val:            val,
		PaperSamples:   cat.prof.PaperTrainN,
		GlobalBatch:    cfg.GlobalBatch,
		PaperBatch:     cfg.PaperBatch,
		LR:             cfg.LR,
		Momentum:       cfg.Momentum,
		Epochs:         cfg.Epochs,
		TargetAccuracy: cfg.TargetAccuracy,
		Seed:           cfg.Seed,
	}
}

// PlanParallelism runs the auto-parallelization planner for cfg and
// returns the winning plan: the enumeration of group count × pipeline
// depth × placement priced on the simnet cost model (see
// Config.Parallelism). The plan can be inspected (String, EpochSeconds
// vs DataEpochSeconds) and executed via WithPlan. Deterministic: equal
// configs return the identical plan.
func PlanParallelism(cfg Config) (*ParallelPlan, error) {
	cfg = cfg.withDefaults()
	cat, err := resolve(cfg.Model, cfg.Dataset, cfg.Generation)
	if err != nil {
		return nil, err
	}
	return searchPlan(cfg, cat)
}

func searchPlan(cfg Config, cat catalog) (*ParallelPlan, error) {
	opts := plan.Options{
		Spec:        cat.spec,
		Cluster:     cat.cluster(cfg.NumSoCs),
		GlobalBatch: cfg.PaperBatch,
		Samples:     cat.prof.PaperTrainN,
	}
	if cfg.Groups > 0 {
		opts.MaxGroups = cfg.Groups
	}
	if cfg.Parallelism == "pipeline" {
		opts.Only = plan.ModePipeline
	}
	p, err := plan.Search(opts)
	if err != nil {
		return nil, fmt.Errorf("socflow: planner: %w", err)
	}
	return p, nil
}

// strategyFromPlan maps a parallelization plan onto an executor: the
// Pipeline strategy for pipeline plans, the paper's grouped protocol
// at the plan's group count for data plans. A pipeline plan is priced
// from its own fields and executed as placed; a data plan runs as
// core.SoCFlow, which maps integrity-greedy and prices at
// cfg.PaperBatch, so a data plan that prices anything else is rejected.
func strategyFromPlan(cfg Config, p *ParallelPlan) (core.Strategy, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPlan, err)
	}
	if p.NumSoCs != cfg.NumSoCs {
		return nil, fmt.Errorf("%w: plan places %d SoCs, cluster has %d", ErrBadPlan, p.NumSoCs, cfg.NumSoCs)
	}
	if p.Mode == plan.ModePipeline {
		return &core.Pipeline{Plan: p}, nil
	}
	if p.Batch != cfg.PaperBatch {
		return nil, fmt.Errorf("%w: data plan is priced at batch %d, the run prices at PaperBatch %d", ErrBadPlan, p.Batch, cfg.PaperBatch)
	}
	mapped := plan.IntegrityGreedyMap(plan.AllNodes(cfg.NumSoCs), p.Groups(), cluster.SoCsPerPCBDefault).Groups
	if !slices.EqualFunc(p.Placement, mapped, slices.Equal[[]int]) {
		return nil, fmt.Errorf("%w: data plan places its groups at %v, the run executes the integrity-greedy mapping %v", ErrBadPlan, p.Placement, mapped)
	}
	mode, err := mixedMode(cfg.Mixed)
	if err != nil {
		return nil, err
	}
	return &core.SoCFlow{NumGroups: p.Groups(), Mixed: mode}, nil
}

// baselineStrategies builds the six baselines of §4.1 by name.
var baselineStrategies = map[string]func() core.Strategy{
	"ps":      baselines.NewParameterServer,
	"ring":    baselines.NewRing,
	"hipress": baselines.NewHiPress,
	"2dparal": baselines.NewTwoDParallel,
	"fedavg":  baselines.NewFedAvg,
	"tfedavg": baselines.NewTreeFedAvg,
}

// trainStrategy builds an admitted Config's executor. A Groups of -1
// runs the warm-up heuristic on probe, a copy of the job without its
// hooks, and a cluster of its own.
func trainStrategy(ctx context.Context, cfg Config, cat catalog, o runOptions, probe *core.Job) (core.Strategy, error) {
	switch {
	case o.plan != nil:
		return strategyFromPlan(cfg, o.plan)
	case cfg.Parallelism == "auto" || cfg.Parallelism == "pipeline":
		p, err := searchPlan(cfg, cat)
		if err != nil {
			return nil, err
		}
		return strategyFromPlan(cfg, p)
	case cfg.Strategy != "socflow":
		return baselineStrategies[cfg.Strategy](), nil
	}
	mode, _ := mixedMode(cfg.Mixed) // admitted
	groups := cfg.Groups
	if groups < 0 {
		var err error
		groups, err = core.AutoGroupCount(ctx, probe, cat.cluster(cfg.NumSoCs), cfg.NumSoCs, 0.5)
		if err != nil {
			return nil, fmt.Errorf("socflow: group-size heuristic: %w", err)
		}
	}
	return &core.SoCFlow{NumGroups: groups, Mixed: mode}, nil
}

func mixedMode(s string) (core.MixedMode, error) {
	switch s {
	case "auto":
		return core.MixedAuto, nil
	case "fp32":
		return core.MixedOff, nil
	case "int8":
		return core.MixedINT8Only, nil
	case "half":
		return core.MixedHalf, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownMixedMode, s)
	}
}

// accumulatedRun merges the per-segment core results of a job that may
// have been parked and resumed into one run-level view. For the common
// single-segment job the merge is the identity, preserving bit-exact
// reports.
type accumulatedRun struct {
	strategy        string
	epochAccuracies []float64
	epochSims       []float64
	simSeconds      float64
	energyJ         float64
	breakdown       core.Breakdown
	preemptions     int
	epochsToTarget  int
	simToTarget     float64
}

func (a *accumulatedRun) add(startEpoch int, res *core.Result) {
	a.strategy = res.Strategy
	a.epochAccuracies = append(a.epochAccuracies[:min(startEpoch, len(a.epochAccuracies))], res.EpochAccuracies...)
	a.epochSims = append(a.epochSims[:min(startEpoch, len(a.epochSims))], res.EpochSimSeconds...)
	simBefore := a.simSeconds
	a.simSeconds += res.SimSeconds
	a.energyJ += res.EnergyJ
	a.breakdown.Compute += res.Breakdown.Compute
	a.breakdown.Sync += res.Breakdown.Sync
	a.breakdown.Update += res.Breakdown.Update
	a.preemptions += res.Preemptions
	if res.EpochsToTarget > 0 && a.epochsToTarget == 0 {
		a.epochsToTarget = startEpoch + res.EpochsToTarget
		a.simToTarget = simBefore + res.SimSecondsToTarget
	}
}

func (a *accumulatedRun) report(cfg Config, job *core.Job) *Report {
	var final, best float64
	for _, v := range a.epochAccuracies {
		if v > best {
			best = v
		}
	}
	if n := len(a.epochAccuracies); n > 0 {
		final = a.epochAccuracies[n-1]
	}
	mean := 0.0
	if len(a.epochSims) > 0 {
		mean = a.simSeconds / float64(len(a.epochSims))
	}
	return &Report{
		Strategy:                 a.strategy,
		Model:                    cfg.Model,
		Dataset:                  cfg.Dataset,
		EpochAccuracies:          a.epochAccuracies,
		FinalAccuracy:            final,
		BestAccuracy:             best,
		SimSeconds:               a.simSeconds,
		MeanEpochSeconds:         mean,
		EnergyKJ:                 a.energyJ / 1000,
		ComputeSeconds:           a.breakdown.Compute,
		SyncSeconds:              a.breakdown.Sync,
		UpdateSeconds:            a.breakdown.Update,
		EpochsToTarget:           a.epochsToTarget,
		SimSecondsToTarget:       a.simToTarget,
		EstimatedHoursToConverge: mean * float64(job.Spec.EpochsToConverge) / 3600,
		Preemptions:              a.preemptions,
	}
}
