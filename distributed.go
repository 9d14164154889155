package socflow

import (
	"context"
	"fmt"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/runtime"
	"socflow/internal/server"
	"socflow/internal/transport"
)

// defaultDistSpec fills DistributedConfig's zero JobSpec fields. The
// distributed engine spawns one goroutine per SoC, so its defaults are
// laptop-sized.
var defaultDistSpec = JobSpec{
	Model:        "lenet5",
	Dataset:      "fmnist",
	Epochs:       6,
	GlobalBatch:  16,
	LR:           0.03,
	Momentum:     0.9,
	Seed:         1,
	TrainSamples: 640,
	ValSamples:   128,
}

// DistributedConfig configures RunDistributed: the same training job
// shape as Config, executed by real concurrent workers — one goroutine
// per SoC exchanging tensors over loopback TCP (or in-process channels)
// with SoCFlow's actual wire protocol: chunked Ring-AllReduce inside
// logical groups per batch, a leader ring across groups per epoch, and
// cross-group data reshuffling.
type DistributedConfig struct {
	// JobSpec carries the shared job fields. Defaults: Model "lenet5",
	// Dataset "fmnist", Epochs 6, GlobalBatch 16 (the per-group batch,
	// split across group members), LR 0.03, Momentum 0.9, Seed 1,
	// TrainSamples 640, ValSamples 128.
	JobSpec
	// NumSoCs is the worker count (default 8; each worker is a
	// goroutine plus its TCP links, so keep this laptop-sized).
	NumSoCs int
	// Groups is the logical-group count (default 2).
	Groups int
	// InProcess swaps the loopback-TCP mesh (default) for in-process
	// channels — faster and fully deterministic, same protocol.
	InProcess bool
	// InjectCrashes injects this many deterministic, seed-derived
	// worker crashes (a transport.FaultPlan built from Seed) — the
	// SoC-preemption scenario of a shared cluster. Without
	// DegradeOnFault the run fails fast with the joined worker errors.
	InjectCrashes int
	// DegradeOnFault lets a crashed member's group shrink to the
	// survivors, which re-split the batch and re-normalize the
	// gradient average, so the run completes instead of aborting.
	DegradeOnFault bool
	// PreemptWindows scripts tidal preemption episodes: SoC leaves at
	// the start of epoch Epoch and (when Return >= 0) is handed back at
	// the start of epoch Return. Setting any window enables the elastic
	// recovery track — heartbeat detection, checkpoint-based epoch
	// retry, and rejoin with leader-served state transfer — as do the
	// WithHeartbeat and WithRecovery options. Build windows from
	// cluster.TidalTrace.PreemptionEvents to replay the co-location
	// trace.
	PreemptWindows []PreemptWindow
	// Parallelism selects how the concurrent engine splits the job:
	//
	//   - "" or "data": the paper's data-parallel SSGD protocol — the
	//     default track above;
	//   - "pipeline": the auto-parallelization planner searches a
	//     pipeline-parallel plan (plan.Search restricted to
	//     ModePipeline) and the mesh executes it — stage parameters
	//     resident on their SoC, GPipe micro-batching, per-epoch
	//     cross-group aggregation;
	//   - "auto": the planner prices pipeline against data parallelism
	//     and the job runs whichever wins (a data-mode winner falls
	//     back to the default track with the plan's group count).
	//
	// Groups caps the planner's group count. With WithRecovery,
	// WithHeartbeat, or any PreemptWindows/ResizeSchedule entry the
	// pipeline track runs elastically: heartbeat death detection,
	// barrier-delimited epoch rounds with in-memory start-of-epoch
	// snapshots, and planner-driven re-planning onto the surviving
	// fleet (DESIGN.md §17). The pipeline track recovers from those
	// snapshots, not the checkpoint store, and DegradeOnFault is
	// data-parallel-only.
	Parallelism string
	// ResizeSchedule scripts tidal capacity targets for the elastic
	// pipeline track: at the boundary before epoch Epoch the usable
	// fleet is clamped to SoCs total (shrinks reclaim the
	// highest-numbered SoCs, grows hand them back), and the manager
	// re-plans onto what is left. Each applied target is also reported
	// through the job's Controller.Resize so the control plane sees
	// the new footprint. Epoch must be >= 1 — there is no boundary
	// before epoch 0. Setting any entry enables the elastic track,
	// like PreemptWindows.
	ResizeSchedule []ResizeEvent
}

// ResizeEvent is one scripted tidal capacity target for
// DistributedConfig.ResizeSchedule.
type ResizeEvent struct {
	// Epoch is the epoch boundary the target applies at (>= 1).
	Epoch int
	// SoCs is the total usable fleet size from that boundary on.
	SoCs int
}

// PreemptWindow is one scripted preemption episode for
// DistributedConfig.PreemptWindows. Return -1 (or any negative value)
// means the SoC never comes back.
type PreemptWindow struct {
	SoC    int
	Epoch  int
	Return int
}

// DistributedReport is RunDistributed's outcome.
type DistributedReport struct {
	// EpochAccuracies is validation accuracy per epoch.
	EpochAccuracies []float64
	// BestAccuracy is the maximum over epochs.
	BestAccuracy float64
	// Topology echoes the integrity-greedy mapping used.
	Topology [][]int
	// Metrics is a snapshot of the run's observability registry —
	// per-worker wall spans, transport byte/retry counters, fault
	// events — when WithMetrics, WithTrace, or WithLogger was used
	// (nil otherwise).
	Metrics *metrics.RunReport
	// Recovery summarizes the elastic track's activity (nil when the
	// run used the plain track).
	Recovery *RecoveryReport
}

// RecoveryReport is the elastic track's activity summary.
type RecoveryReport struct {
	// Detections is how many workers the heartbeat detector declared
	// dead; Rejoins how many scheduled returns were re-admitted;
	// Retries how many epoch retries were released.
	Detections, Rejoins, Retries int
	// MembershipEpoch is the final membership version (one increment
	// per departure and per admission).
	MembershipEpoch int
	// StateTransferBytes is the serialized state shipped to rejoining
	// nodes.
	StateTransferBytes int64
	// Replans lists the elastic pipeline track's replan-vs-degrade
	// decisions in adoption order, each with old→new plan strings and
	// predicted vs executed epoch seconds (empty on the data-parallel
	// track and when membership never changed).
	Replans []ReplanEpisode
}

// ReplanEpisode is one recorded membership-change decision of the
// elastic pipeline track: what triggered it (crash, resize, rejoin),
// whether the manager adopted a re-plan or degraded in place, the old
// and new plan strings, and the adopted plan's predicted vs executed
// epoch seconds.
type ReplanEpisode = runtime.ReplanEpisode

func (c DistributedConfig) withDefaults() DistributedConfig {
	c.JobSpec = c.JobSpec.WithDefaults(defaultDistSpec)
	if c.NumSoCs == 0 {
		c.NumSoCs = 8
	}
	if c.Groups == 0 {
		c.Groups = 2
	}
	return c
}

// RunDistributed trains with the concurrent distributed engine. Unlike
// Run — which executes the mathematically equivalent single-model lift
// per group and prices time on the simulated cluster — this actually
// spawns one worker per SoC and moves every gradient over the
// transport. Use it to demonstrate or debug the protocol itself.
// Cancelling ctx tears down the mesh, unwinds the workers, and returns
// ctx.Err(). Like Run, it is a submit-and-wait wrapper over the
// in-process control plane.
func RunDistributed(ctx context.Context, cfg DistributedConfig, opts ...Option) (*DistributedReport, error) {
	h, err := defaultClient().SubmitDistributed(ctx, cfg, opts...)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// buildDistributedSpec compiles a DistributedConfig into the
// scheduler's JobSpec. Distributed jobs are not preemptible: the
// concurrent engine absorbs per-SoC departures through its elastic
// recovery track instead of whole-job parking.
func buildDistributedSpec(submitCtx context.Context, cfg DistributedConfig, o runOptions, h *jobRef) (server.JobSpec, error) {
	// Validate eagerly so configuration errors surface at Submit.
	if _, err := nn.GetSpec(cfg.Model); err != nil {
		return server.JobSpec{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownModel, cfg.Model, Models())
	}
	if _, err := dataset.GetProfile(cfg.Dataset); err != nil {
		return server.JobSpec{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownDataset, cfg.Dataset, Datasets())
	}
	switch cfg.Parallelism {
	case "", "data", "pipeline", "auto":
	default:
		return server.JobSpec{}, fmt.Errorf("%w: %q (have \"\", data, pipeline, auto)", ErrUnknownParallelism, cfg.Parallelism)
	}
	for _, ev := range cfg.ResizeSchedule {
		if ev.Epoch < 1 || ev.SoCs < 1 {
			return server.JobSpec{}, fmt.Errorf("socflow: ResizeSchedule entry {Epoch: %d, SoCs: %d}: Epoch must be >= 1 and SoCs positive", ev.Epoch, ev.SoCs)
		}
	}

	userReg := o.registry()
	o.subscribe(userReg)

	run := func(runCtx context.Context, ctl *server.Controller) (any, error) {
		defer o.apply()()
		ctx, cancel := context.WithCancel(submitCtx)
		defer cancel()
		stop := context.AfterFunc(runCtx, cancel)
		defer stop()

		reg := userReg
		if reg == nil {
			reg = metrics.New()
		}
		h.attachRegistry(reg)

		spec, err := nn.GetSpec(cfg.Model)
		if err != nil {
			return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownModel, cfg.Model, Models())
		}
		prof, err := dataset.GetProfile(cfg.Dataset)
		if err != nil {
			return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownDataset, cfg.Dataset, Datasets())
		}
		pool := prof.Generate(dataset.GenOptions{Samples: cfg.TrainSamples + cfg.ValSamples, Seed: cfg.Seed})
		train, val := pool.Split(float64(cfg.TrainSamples) / float64(pool.Len()))

		var pplan *autoplan.Plan
		var popts autoplan.Options
		if cfg.Parallelism == "pipeline" || cfg.Parallelism == "auto" {
			popts = pipelinePlanOptions(cfg, spec, train.Len())
			p, err := autoplan.Search(popts)
			if err != nil {
				return nil, fmt.Errorf("socflow: planner: %w", err)
			}
			if p.Mode == autoplan.ModePipeline {
				pplan = p
			} else {
				// "auto" priced data parallelism faster: fall through
				// to the default track with the plan's group count.
				cfg.Groups = p.Groups()
			}
		}

		mapping := autoplan.IntegrityGreedyMap(autoplan.AllNodes(cfg.NumSoCs), cfg.Groups, cluster.SoCsPerPCBDefault)

		var mesh transport.Mesh
		if cfg.InProcess {
			mesh = transport.NewChanMesh(cfg.NumSoCs)
		} else {
			tcp, err := transport.NewTCPMesh(cfg.NumSoCs)
			if err != nil {
				return nil, fmt.Errorf("socflow: building TCP mesh: %w", err)
			}
			defer tcp.Close()
			tcp.SetMetrics(reg)
			mesh = tcp
		}

		// What both tracks share; the pipeline track takes its groups
		// from the plan instead.
		dcfg := runtime.DistConfig{
			JobSpec:  cfg.JobSpec,
			Metrics:  reg,
			EpochEnd: func(epoch int, acc float64) { ctl.ObserveEpoch(epoch) },
		}
		if cfg.InjectCrashes > 0 {
			dcfg.Faults = transport.RandomCrashPlan(cfg.Seed+7, cfg.NumSoCs, cfg.Epochs, cfg.InjectCrashes)
		}
		if store, err := o.checkpointStore(); err != nil {
			return nil, err
		} else if store != nil {
			dcfg.Checkpoints = store
			dcfg.CheckpointEvery = o.checkpointEvery
		}
		if pplan != nil {
			return runPipelineTrack(ctx, cfg, o, mesh, spec, train, val, pplan, popts, dcfg, userReg, ctl)
		}

		if o.logger != nil {
			o.logger.Printf("distributed run: %s on %s, %d SoCs in %d groups", cfg.Model, cfg.Dataset, cfg.NumSoCs, cfg.Groups)
		}
		dcfg.Groups = mapping.Groups
		dcfg.DegradeOnFault = cfg.DegradeOnFault
		if o.recovery || len(cfg.PreemptWindows) > 0 {
			dcfg.Faults, dcfg.Recovery = recoveryPlan(cfg, o, dcfg.Faults)
		}
		finish := core.BeginKernelHarvest(userReg)
		span := reg.BeginSpan("run", "facade", 0)
		res, err := runtime.RunDistributed(ctx, mesh, spec, train, val, dcfg)
		span.End()
		finish()
		if err != nil {
			return nil, err
		}
		return distributedReport(res, mapping.Groups, userReg), nil
	}

	return server.JobSpec{
		Tenant:     o.tenant,
		Priority:   o.priority,
		SoCs:       cfg.NumSoCs,
		Epochs:     cfg.Epochs,
		Run:        run,
		OnTerminal: func() { h.finishEvents() },
	}, nil
}

// pipelinePlanOptions derives the auto-parallelization search options
// the distributed pipeline track plans — and, under recovery,
// re-plans — with. Kept as its own function so tests and the bench
// harness can reproduce the exact plan a run will execute.
func pipelinePlanOptions(cfg DistributedConfig, spec *nn.Spec, samples int) autoplan.Options {
	opts := autoplan.Options{
		Spec:        spec,
		NumSoCs:     cfg.NumSoCs,
		GlobalBatch: cfg.GlobalBatch,
		Samples:     samples,
	}
	if cfg.Groups > 0 {
		opts.MaxGroups = cfg.Groups
	}
	if cfg.Parallelism == "pipeline" {
		opts.Only = autoplan.ModePipeline
	}
	return opts
}

// recoveryPlan maps the facade's recovery options and scripted
// preemption windows onto the runtime's fault plan and recovery
// config. Shared by the data-parallel and pipeline tracks.
func recoveryPlan(cfg DistributedConfig, o runOptions, faults *transport.FaultPlan) (*transport.FaultPlan, *runtime.RecoveryConfig) {
	rc := &runtime.RecoveryConfig{
		HeartbeatInterval: o.hbInterval,
		HeartbeatTimeout:  o.hbTimeout,
		MaxRetries:        o.maxRetries,
		RetryBackoff:      o.retryBackoff,
	}
	if faults == nil {
		faults = &transport.FaultPlan{}
	}
	for _, w := range cfg.PreemptWindows {
		ev := transport.FaultEvent{Kind: transport.FaultCrash, Node: w.SoC, Epoch: w.Epoch}
		if w.Return >= 0 {
			ev.UntilEpoch = w.Return
			rc.Rejoins = append(rc.Rejoins, runtime.Rejoin{Node: w.SoC, Epoch: w.Return})
		}
		faults.Events = append(faults.Events, ev)
	}
	if len(faults.Events) == 0 {
		faults = nil
	}
	return faults, rc
}

// runPipelineTrack executes a searched pipeline plan over the mesh —
// elastically when recovery is enabled — and shapes the result into
// the facade report. The scripted ResizeSchedule is driven from the
// leader's epoch-end hook: each target is pushed to the elastic
// manager and mirrored to the control plane via Controller.Resize so
// the scheduler's view of the job footprint tracks the tide.
func runPipelineTrack(ctx context.Context, cfg DistributedConfig, o runOptions, mesh transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset, p *autoplan.Plan, popts autoplan.Options, dcfg runtime.DistConfig, userReg *metrics.Registry, ctl *server.Controller) (*DistributedReport, error) {
	if o.logger != nil {
		o.logger.Printf("distributed pipeline run: %s on %s, plan %s", cfg.Model, cfg.Dataset, p.String())
	}
	pcfg := runtime.PipelineConfig{DistConfig: dcfg, Plan: p}
	if o.recovery || len(cfg.PreemptWindows) > 0 || len(cfg.ResizeSchedule) > 0 {
		pcfg.Faults, pcfg.Recovery = recoveryPlan(cfg, o, pcfg.Faults)
		pcfg.Planner = &popts
		if len(cfg.ResizeSchedule) > 0 {
			resizes := make(chan int, len(cfg.ResizeSchedule))
			pcfg.Resizes = resizes
			schedule := append([]ResizeEvent(nil), cfg.ResizeSchedule...)
			pcfg.EpochEnd = func(epoch int, acc float64) {
				ctl.ObserveEpoch(epoch)
				for _, ev := range schedule {
					if ev.Epoch == epoch+1 {
						resizes <- ev.SoCs
						ctl.Resize(ev.SoCs)
					}
				}
			}
		}
	}
	finish := core.BeginKernelHarvest(userReg)
	span := dcfg.Metrics.BeginSpan("run", "facade", 0)
	res, err := runtime.RunPipeline(ctx, mesh, spec, train, val, pcfg)
	span.End()
	finish()
	if err != nil {
		return nil, err
	}
	return distributedReport(res, p.Placement, userReg), nil
}

// distributedReport shapes a runtime result into the facade report.
func distributedReport(res *runtime.DistResult, topology [][]int, userReg *metrics.Registry) *DistributedReport {
	rep := &DistributedReport{EpochAccuracies: res.EpochAccuracies, Topology: topology}
	for _, a := range res.EpochAccuracies {
		if a > rep.BestAccuracy {
			rep.BestAccuracy = a
		}
	}
	if s := res.Recovery; s != nil {
		rep.Recovery = &RecoveryReport{
			Detections:         s.Detections,
			Rejoins:            s.Rejoins,
			Retries:            s.Retries,
			MembershipEpoch:    s.MembershipEpoch,
			StateTransferBytes: s.StateTransferBytes,
			Replans:            res.Replans,
		}
	}
	rep.Metrics = userReg.Snapshot()
	return rep
}
