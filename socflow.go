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
	"slices"

	"socflow/internal/baselines"
	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/plan"
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
	// (§3.1's first-epoch-accuracy knee rule).
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
// socflow-server daemon, against an unbounded cluster so it starts
// immediately. For concurrent jobs, quotas, priorities, and preemption,
// use NewServer/Client directly.
func Run(ctx context.Context, cfg Config, opts ...Option) (*Report, error) {
	h, err := defaultClient().Submit(ctx, cfg, opts...)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// resolve looks cfg's names up in their catalogs and builds the modeled
// cluster: everything a job needs short of its training data.
func resolve(cfg Config) (*nn.Spec, *dataset.Profile, *cluster.Cluster, error) {
	spec, err := nn.GetSpec(cfg.Model)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownModel, cfg.Model, Models())
	}
	prof, err := dataset.GetProfile(cfg.Dataset)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownDataset, cfg.Dataset, Datasets())
	}
	var gen cluster.SoCGeneration
	switch cfg.Generation {
	case "sd865":
		gen = cluster.Gen865
	case "sd8gen1":
		gen = cluster.Gen8Gen1
	default:
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownGeneration, cfg.Generation)
	}
	return spec, prof, cluster.New(cluster.Config{NumSoCs: cfg.NumSoCs, Generation: gen}), nil
}

func buildJob(cfg Config) (*core.Job, *cluster.Cluster, error) {
	spec, prof, clu, err := resolve(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Train and validation must come from one generation pass so they
	// share class prototypes.
	pool := prof.Generate(dataset.GenOptions{Samples: cfg.TrainSamples + cfg.ValSamples, Seed: cfg.Seed})
	train, val := pool.Split(float64(cfg.TrainSamples) / float64(pool.Len()))
	job := &core.Job{
		Spec:           spec,
		Train:          train,
		Val:            val,
		PaperSamples:   prof.PaperTrainN,
		GlobalBatch:    cfg.GlobalBatch,
		PaperBatch:     cfg.PaperBatch,
		LR:             cfg.LR,
		Momentum:       cfg.Momentum,
		Epochs:         cfg.Epochs,
		TargetAccuracy: cfg.TargetAccuracy,
		Seed:           cfg.Seed,
	}
	return job, clu, nil
}

// PlanParallelism runs the auto-parallelization planner for cfg and
// returns the winning plan: the enumeration of group count × pipeline
// depth × placement priced on the simnet cost model (see
// Config.Parallelism). The plan can be inspected (String, EpochSeconds
// vs DataEpochSeconds) and executed via WithPlan. Deterministic: equal
// configs return the identical plan.
func PlanParallelism(cfg Config) (*ParallelPlan, error) {
	cfg = cfg.withDefaults()
	spec, prof, clu, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	opts := plan.Options{
		Spec:        spec,
		Cluster:     clu,
		GlobalBatch: cfg.PaperBatch,
		Samples:     prof.PaperTrainN,
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

func buildStrategy(ctx context.Context, cfg Config, o runOptions) (core.Strategy, error) {
	if o.plan != nil {
		return strategyFromPlan(cfg, o.plan)
	}
	switch cfg.Parallelism {
	case "", "data":
		// The paper's data-parallel protocol — the strategy switch below.
	case "auto", "pipeline":
		if cfg.Strategy != "socflow" {
			return nil, fmt.Errorf("%w: Parallelism %q requires strategy \"socflow\", got %q",
				ErrUnknownParallelism, cfg.Parallelism, cfg.Strategy)
		}
		p, err := PlanParallelism(cfg)
		if err != nil {
			return nil, err
		}
		return strategyFromPlan(cfg, p)
	default:
		return nil, fmt.Errorf("%w: %q (have \"\", data, auto, pipeline)", ErrUnknownParallelism, cfg.Parallelism)
	}
	switch cfg.Strategy {
	case "socflow":
		mode, err := mixedMode(cfg.Mixed)
		if err != nil {
			return nil, err
		}
		groups := cfg.Groups
		if groups < 0 {
			job, clu, err := buildJob(cfg)
			if err != nil {
				return nil, err
			}
			groups, err = core.AutoGroupCount(ctx, job, clu, cfg.NumSoCs, 0.5)
			if err != nil {
				return nil, fmt.Errorf("socflow: group-size heuristic: %w", err)
			}
		}
		return &core.SoCFlow{NumGroups: groups, Mixed: mode}, nil
	case "ps":
		return baselines.NewParameterServer(), nil
	case "ring":
		return baselines.NewRing(), nil
	case "hipress":
		return baselines.NewHiPress(), nil
	case "2dparal":
		return baselines.NewTwoDParallel(), nil
	case "fedavg":
		return baselines.NewFedAvg(), nil
	case "tfedavg":
		return baselines.NewTreeFedAvg(), nil
	default:
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownStrategy, cfg.Strategy, Strategies())
	}
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
