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
	// permanent worker crashes (a transport.FaultPlan built from Seed) —
	// the SoC-preemption scenario of a shared cluster. Without
	// WithRecovery or WithHeartbeat the run fails fast with the joined
	// worker errors; with either, peers detect each crash by heartbeat
	// and the run completes on the survivors. It must lie in
	// [0, NumSoCs): Submit rejects a count that leaves no survivor.
	InjectCrashes int
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
	//     and the job runs whichever wins.
	//
	// Groups caps the planner's group count. With WithRecovery,
	// WithHeartbeat, or any PreemptWindows/ResizeSchedule entry either
	// mode runs elastically: heartbeat death detection and
	// barrier-delimited epoch rounds that retry from in-memory
	// start-of-epoch snapshots, not the checkpoint store; a pipeline
	// also re-plans onto the surviving fleet (DESIGN.md §17). Without
	// recovery a crash is fatal in either mode.
	Parallelism string
	// ResizeSchedule scripts tidal capacity targets for the elastic
	// track, in either Parallelism mode: at the boundary before epoch
	// Epoch the usable fleet is clamped to SoCs total (shrinks reclaim
	// the highest-numbered SoCs, grows hand them back by state
	// transfer); data-parallel groups train on their remaining members,
	// and a pipeline re-plans onto what is left. Each applied target is
	// also reported through the job's Controller.Resize so the control
	// plane sees the new footprint. Epoch must be >= 1 — there is no
	// boundary before epoch 0. Setting any entry enables the elastic
	// track, like PreemptWindows.
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
	// Topology echoes the executed plan's placement: the
	// integrity-greedy groups of a data plan, a pipeline's stage
	// placement.
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
	if cfg.InjectCrashes < 0 || cfg.InjectCrashes >= cfg.NumSoCs {
		return server.JobSpec{}, fmt.Errorf("%w: InjectCrashes %d: want 0..NumSoCs-1 (%d), so a survivor is left to finish the run",
			ErrBadOption, cfg.InjectCrashes, cfg.NumSoCs-1)
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

		p, popts, err := distributedPlan(cfg, spec, train.Len())
		if err != nil {
			return nil, err
		}

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

		if o.logger != nil {
			o.logger.Printf("distributed run: %s on %s, %d SoCs, plan %s", cfg.Model, cfg.Dataset, cfg.NumSoCs, p)
		}
		resizes := make(chan int, len(cfg.ResizeSchedule))
		dcfg := runtime.DistConfig{
			JobSpec: cfg.JobSpec,
			Plan:    p,
			Planner: &popts,
			Resizes: resizes,
			Metrics: reg,
			// The leader's epoch-end hook also drives the ResizeSchedule:
			// each target goes to the elastic manager and is mirrored to the
			// control plane, so the scheduler's view of the job footprint
			// tracks the tide.
			EpochEnd: func(epoch int, _ float64) {
				ctl.ObserveEpoch(epoch)
				for _, ev := range cfg.ResizeSchedule {
					if ev.Epoch == epoch+1 {
						resizes <- ev.SoCs
						ctl.Resize(ev.SoCs)
					}
				}
			},
		}
		if cfg.InjectCrashes > 0 {
			dcfg.Faults = transport.RandomCrashPlan(cfg.Seed+7, cfg.NumSoCs, cfg.Epochs, cfg.InjectCrashes)
		}
		if o.recovery || len(cfg.PreemptWindows) > 0 || len(cfg.ResizeSchedule) > 0 {
			dcfg.Faults, dcfg.Recovery = recoveryPlan(cfg, o, dcfg.Faults)
		}
		if store, err := o.checkpointStore(); err != nil {
			return nil, err
		} else if store != nil {
			dcfg.Checkpoints = store
			dcfg.CheckpointEvery = o.checkpointEvery
		}
		finish := core.BeginKernelHarvest(userReg)
		span := reg.BeginSpan("run", "facade", 0)
		res, err := runtime.RunDistributed(ctx, mesh, spec, train, val, dcfg)
		span.End()
		finish()
		if err != nil {
			return nil, err
		}
		return distributedReport(res, p.Placement, userReg), nil
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

// distributedPlan returns the plan a DistributedConfig's run executes
// and the search options that find it — and, under recovery, re-plan
// it. Parallelism "" and "data" map Groups integrity-greedily without a
// search; "pipeline" and "auto" run plan.Search, whose data candidate is
// that same mapping.
func distributedPlan(cfg DistributedConfig, spec *nn.Spec, samples int) (*autoplan.Plan, autoplan.Options, error) {
	o := runtime.PlannerOptions(autoplan.Options{MaxGroups: cfg.Groups}, spec, cfg.NumSoCs, cfg.GlobalBatch, samples)
	switch cfg.Parallelism {
	case "pipeline":
		o.Only = autoplan.ModePipeline
		fallthrough
	case "auto":
		p, err := autoplan.Search(o)
		if err != nil {
			return nil, o, fmt.Errorf("socflow: planner: %w", err)
		}
		return p, o, nil
	}
	return &autoplan.Plan{
		NumSoCs:   cfg.NumSoCs,
		Mode:      autoplan.ModeData,
		Placement: autoplan.IntegrityGreedyMap(autoplan.AllNodes(cfg.NumSoCs), cfg.Groups, cluster.SoCsPerPCBDefault).Groups,
		Batch:     cfg.GlobalBatch,
	}, o, nil
}

// recoveryPlan maps the facade's recovery options and scripted
// preemption windows onto the runtime's fault plan and recovery
// config.
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
