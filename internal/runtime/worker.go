package runtime

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// DistConfig describes a distributed training run on a mesh.
// The embedded JobSpec supplies the shared hyperparameters: GlobalBatch
// is BS_g, the per-group batch each iteration, and Seed drives model
// init, sharding, and batch order — every node derives the identical
// schedule from it.
type DistConfig struct {
	core.JobSpec
	// Plan is what the mesh executes; its NumSoCs must be the mesh size.
	// A ModeData plan's Placement is the group layout (e.g. from
	// plan.IntegrityGreedyMap): each group's members split its batch and
	// ring-all-reduce gradients every iteration. A ModePipeline plan (from
	// plan.Search) runs stage i of group g on Placement[g][i]. Nodes the
	// plan leaves unplaced host no worker, except as warm spares on the
	// elastic pipeline track.
	Plan *autoplan.Plan
	// Planner holds the search options the elastic pipeline track
	// re-plans with on membership changes, restricted to the surviving
	// SoCs; every zero field is filled from the run (PlannerOptions), so
	// nil means "plan for this run as it is".
	Planner *autoplan.Options
	// Resizes, when non-nil on the elastic track, delivers tidal capacity
	// targets (total usable SoCs) from the control plane's Resize path;
	// shrinks reclaim the highest-numbered usable SoCs and grows hand them
	// back.
	Resizes <-chan int
	// EpochEnd, when non-nil, is called by the global leader after each
	// epoch with the 0-based epoch and validation accuracy.
	EpochEnd func(epoch int, acc float64)
	// Faults, when non-nil, is applied to the mesh via
	// transport.WithFaults: the scripted crashes, link drops, and
	// stragglers fire at their (epoch, iteration) trigger points.
	Faults *transport.FaultPlan
	// Metrics, when non-nil, receives the run's observability stream:
	// the mesh is wrapped with transport.WithMetrics (byte/message
	// counters), workers record per-epoch and per-iteration wall-clock
	// spans and gradient-sync payload bytes, fault triggers and worker
	// errors emit events, and the global leader funnels per-epoch
	// accuracy through ObserveEpoch (with simulated time 0 — the
	// distributed track runs on real time only).
	Metrics *metrics.Registry
	// Kernels, when non-nil, tracks every worker's model, so the run's
	// registry receives this run's kernel counts alone.
	Kernels *core.KernelHarvest
	// Recovery, when non-nil, switches the run onto the elastic track,
	// the only one on which an injected crash is survivable: the mesh is
	// stacked with transport.WithHeartbeat so peers *detect* a crash by
	// missed-beat timeout, a recovery manager supervises the workers in
	// barrier-delimited rounds, a failed epoch retries from in-memory
	// snapshots on the surviving membership under a bounded budget, and
	// nodes listed in Recovery.Rejoins are re-admitted with a
	// leader-served state transfer. Without it a crash is fatal.
	Recovery *RecoveryConfig
	// Checkpoints, when non-nil, receives periodic automatic
	// checkpoints of the aggregated model, written by the global leader
	// at epoch boundaries on every track.
	Checkpoints *core.CheckpointStore
	// CheckpointEvery is the epoch stride between automatic
	// checkpoints; <=1 checkpoints every epoch. The final epoch is
	// always checkpointed.
	CheckpointEvery int
}

// DistResult is what RunDistributed reports.
type DistResult struct {
	// EpochAccuracies is validation accuracy after each epoch,
	// evaluated by the global leader (all groups agree after the
	// inter-group aggregation). Indexed by epoch; on the elastic track
	// the reporting node may change when leaders crash.
	EpochAccuracies []float64
	// Final is the fully aggregated model after the last epoch.
	Final *nn.Sequential
	// Recovery carries the elastic track's counters (detections,
	// rejoins, retries, state-transfer bytes); nil on the plain track.
	Recovery *RecoveryStats
	// Replans lists the elastic pipeline track's replan-vs-degrade
	// decisions in adoption order; nil when membership never changed.
	Replans []ReplanEpisode
}

// RunDistributed executes a plan for real: one goroutine per placed SoC
// over the mesh, speaking the protocol of the plan's mode.
//
// A data plan runs SoCFlow's group-wise protocol. Within a group, every
// member computes gradients on its slice of the group batch and the
// group ring-all-reduces them each iteration (SSGD); across groups,
// leaders ring-all-reduce the weights once per epoch and broadcast them
// back to their members (delayed aggregation); shards reshuffle across
// groups between epochs. The protocol, message layout, and schedule are
// what the paper's prototype runs over TCP.
//
// A pipeline plan runs each stage where it is placed: activations and
// input-gradients cross the mesh at every stage boundary, one GPipe
// micro-batch at a time — the micro model's layers hold a single
// activation set, so the overlapped schedule's *timing* is priced by the
// core strategy's performance track, while this path validates the
// protocol and the math. Gradients never cross the wire inside an
// iteration. Across groups, the nodes holding the same stage position
// ring-all-reduce their stage's weights and batch-norm state once per
// epoch, and group 0's stages ship their slices to the global leader,
// which assembles the full model and evaluates. The schedule follows
// core.Pipeline's seed discipline, so the two are bit-comparable.
//
// Failure domain: the first worker to fail closes the mesh, which
// errors out every peer blocked in a collective, so the run unwinds
// instead of deadlocking; all worker errors are joined into the
// returned error. Cancelling ctx closes the mesh the same way and
// RunDistributed returns ctx.Err(). With cfg.Faults set, scripted
// faults are injected; with cfg.Recovery also set, a crash is detected
// by heartbeat and the run continues on the survivors (recovery.go).
func RunDistributed(ctx context.Context, mesh transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset, cfg DistConfig) (*DistResult, error) {
	p := cfg.Plan
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	if p.NumSoCs != mesh.Size() {
		return nil, fmt.Errorf("runtime: plan places %d SoCs, mesh has %d nodes", p.NumSoCs, mesh.Size())
	}
	if cfg.Epochs <= 0 || cfg.GlobalBatch <= 0 {
		return nil, fmt.Errorf("runtime: epochs=%d batch=%d", cfg.Epochs, cfg.GlobalBatch)
	}
	pipe := p.Mode == autoplan.ModePipeline
	prefix := "worker"
	// Validate holds a pipeline plan's stages contiguous from layer 0;
	// only the built model knows where its layers end. Every stage worker
	// slices its model by them, so check once, before any starts. The
	// first stage worker to start trains the model the check built (every
	// worker builds the same one from the seed), so the check costs no
	// extra model.
	var shell atomic.Pointer[nn.Sequential]
	if pipe {
		prefix = "stage worker"
		m := buildModel(spec, train, cfg.Seed)
		if last := p.Stages[len(p.Stages)-1]; last.To != len(m.Layers)-1 {
			return nil, fmt.Errorf("runtime: pipeline stages cover layers [0, %d], the %s model has %d", last.To, spec.Name, len(m.Layers))
		}
		shell.Store(m)
	}
	// Every node the plan trains on hosts a worker and the others idle —
	// except on the elastic pipeline track, where they park at the barrier
	// as warm spares a re-plan can place.
	workers := slices.Concat(stageGroups(p)...)
	slices.Sort(workers)
	var policy roundPolicy = &dpPolicy{plan: p}
	if cfg.Recovery != nil {
		if pipe {
			workers = autoplan.AllNodes(mesh.Size())
			pp, err := newPipePolicy(&cfg, spec, mesh.Size(), train.Len())
			if err != nil {
				return nil, err
			}
			policy = pp
		}
		// Liveness is discovered at runtime by the failure detector, and
		// preempted nodes may come back — but a fault plan that leaves no
		// worker standing at an epoch's end would only fail once the
		// manager runs out of workers, so refuse it before any launches.
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			if !slices.ContainsFunc(workers, func(x int) bool { return !cfg.Faults.CrashedAt(x, epoch, transport.IterEpochEnd) }) {
				return nil, fmt.Errorf("runtime: fault plan crashes every worker by the end of epoch %d; no survivor can finish the run", epoch)
			}
		}
	}

	// One stack for both tracks: the fault plan causes failures
	// innermost; on the elastic track the heartbeat layer turns the
	// resulting silence into detection evidence; the outer meter counts
	// only transfers that succeed — injected failures move no bytes — and
	// never sees a beat.
	if cfg.Faults != nil {
		mesh = transport.WithFaults(mesh, cfg.Faults)
	}
	var m *roundManager // the elastic track's supervisor
	if cfg.Recovery != nil {
		rc := cfg.Recovery.withDefaults()
		hb := transport.WithHeartbeat(mesh, rc.HeartbeatInterval, rc.HeartbeatTimeout, cfg.Metrics)
		m = newRoundManager(cfg.Epochs, rc, hb, cfg.Metrics, workers, policy)
		mesh = hb
	}
	mesh = transport.WithMetrics(mesh, cfg.Metrics)

	rep := newReporter(&cfg, val)
	// A re-planning track's policy publishes the drift of each plan it
	// commits; every other track executes cfg.Plan throughout.
	if _, replans := policy.(*pipePolicy); !replans {
		rep.watchDrift(spec, mesh.Size(), train.Len())
	}
	// The plain track's membership never changes: one static round, read
	// by every worker, stands for the whole run. The elastic track's
	// manager releases a round per epoch attempt instead.
	static := &round{groups: stageGroups(p), plan: p}
	// Teardown stops the manager first, so supervision ends before the
	// dying mesh turns every silence into a spurious detection, then
	// closes the mesh to unblock workers stuck in collectives.
	pl := newPool(cfg.Metrics, prefix, func() {
		if m != nil {
			m.close()
		}
		mesh.Close()
	}, func(id int) error {
		t, e := newWorker(mesh.Node(id), spec, train, &cfg, rep, shell.Swap(nil))
		if m != nil {
			e.mgr, e.clock.plan = m, cfg.Faults
			return e.run(t)
		}
		if _, _, err := t.enter(e, static, false); err != nil {
			return err
		}
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			if err := t.runEpoch(epoch, static); err != nil {
				return err
			}
		}
		return nil
	})
	if m != nil {
		m.spawnFn = pl.launch
		m.start(cfg.Resizes)
	}
	for _, id := range workers {
		pl.launch(id)
	}
	err := pl.wait(ctx)
	pl.teardown()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return rep.res, nil
	}
	m.mu.Lock()
	done, stats := m.done, m.stats
	m.mu.Unlock()
	if !done {
		return nil, fmt.Errorf("runtime: elastic run ended before completing %d epochs (all workers gone)", cfg.Epochs)
	}
	rep.res.Recovery = &stats
	if pp, ok := policy.(*pipePolicy); ok {
		rep.res.Replans = pp.replans
	}
	return rep.res, nil
}

// newWorker builds node's worker for the plan's mode — a data-parallel
// replica or a pipeline stage — and the track-independent half the
// elastic track snapshots and transfers. A pipeline stage worker trains
// shell when it is non-nil, and builds its own model otherwise.
func newWorker(node transport.Node, spec *nn.Spec, train *dataset.Dataset, cfg *DistConfig, rep *reporter, shell *nn.Sequential) (roundTrainer, *elasticState) {
	if cfg.Plan.Mode == autoplan.ModeData {
		g, _, _ := positionIn(cfg.Plan.Placement, node.ID())
		w := newDPWorker(node, spec, train, cfg, g, rep)
		return w, &elasticState{node: node, clock: &w.clock, weights: w.weights, state: w.state, shipVel: true}
	}
	if shell == nil {
		shell = buildModel(spec, train, cfg.Seed)
	}
	w := newPipeWorker(node, shell, train, cfg, rep)
	w.elastic = cfg.Recovery != nil
	return w, &elasticState{node: node, clock: &w.clock, weights: w.weights, state: w.state}
}

// dpWorker is one SoC's data-parallel execution state, shared between
// the plain and elastic tracks: the seed-built replica, its optimizer,
// the deterministic data cursor, and the collective calls at group and
// epoch boundaries.
type dpWorker struct {
	node  transport.Node
	cfg   *DistConfig
	group int
	rep   *reporter
	clock faultClock

	model   *nn.Sequential
	opt     *nn.SGD
	params  []*nn.Param
	weights []*tensor.Tensor
	state   []*tensor.Tensor // batch-norm running statistics
	sync    []*tensor.Tensor // weights ++ state, the epoch-end sync set
	vel     []*tensor.Tensor

	sched dataset.Schedule

	// Flat exchange buffers, reused across iterations and epochs.
	gradFlat, syncFlat []float32
	// The member's batch-slice view and loss gradient, reused likewise.
	xView, lossGrad *tensor.Tensor

	// Instruments resolve once per worker; on a nil registry they are
	// nil and every use is a free no-op.
	cGradBytes, cIters *metrics.Counter
}

// buildModel builds the micro model every mesh worker starts from:
// the same seed everywhere, so every replica and every stage's slice
// starts identical.
func buildModel(spec *nn.Spec, train *dataset.Dataset, seed uint64) *nn.Sequential {
	return spec.BuildMicro(tensor.NewRNG(seed), train.Channels(), train.ImageSize(), train.Classes)
}

func newDPWorker(node transport.Node, spec *nn.Spec, train *dataset.Dataset, cfg *DistConfig, group int, rep *reporter) *dpWorker {
	w := &dpWorker{node: node, cfg: cfg, group: group, rep: rep}
	w.sched = dataset.Schedule{Train: train, Batch: cfg.GlobalBatch, Seed: cfg.Seed}
	w.clock = newFaultClock(node, cfg.Metrics)
	// Identical init everywhere: same seed, same stream. A rejoiner
	// rebuilds the same shell and then overwrites it with the
	// transferred state.
	w.model = cfg.Kernels.Track(buildModel(spec, train, cfg.Seed))
	w.opt = nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	w.params = w.model.Params()
	w.weights = w.model.Weights()
	w.state = w.model.StateTensors()
	w.sync = append(append([]*tensor.Tensor{}, w.weights...), w.state...)
	w.vel = w.opt.VelocityTensors(w.params)
	w.cGradBytes = cfg.Metrics.Counter("runtime.gradsync.bytes")
	w.cIters = cfg.Metrics.Counter("runtime.iterations")
	return w
}

// runEpoch is one data-parallel epoch over round r's frozen membership:
// the plain track's one static round, or the elastic manager's view of
// the survivors, in which a re-admitted node re-expands the split at
// exactly that boundary. Returns errSelfCrash at the worker's own
// preemption point.
func (w *dpWorker) runEpoch(epoch int, r *round) error {
	cfg := w.cfg
	me := w.node.ID()
	reg := cfg.Metrics
	lv := r.groups[w.group]
	rank := rankOf(me, lv)
	if rank < 0 {
		return fmt.Errorf("runtime: worker %d missing from its group membership", me)
	}
	epochSpan := reg.BeginSpan("epoch", "worker", me)
	defer epochSpan.End()
	// The same question core.SoCFlow asks. The iterator consumes the
	// full configured global batch; the proportional split below spreads
	// any remainder over members instead of silently truncating it.
	it := w.sched.Iterator(cfg.Plan.Groups(), w.group, epoch)
	iters := w.sched.Steps(cfg.Plan.Groups(), epoch)
	for i := 0; i < iters; i++ {
		if w.clock.crashedAt(epoch, i) {
			return errSelfCrash
		}
		iterSpan := reg.BeginSpan("iter", "worker", me)
		x, labels := it.Next()
		// This member's slice of the group batch; slice bounds are
		// proportional, so ragged batches split without loss.
		n := x.Shape[0]
		lo := rank * n / len(lv)
		hi := (rank + 1) * n / len(lv)
		w.model.ZeroGrad()
		if hi > lo {
			w.xView = tensor.RowsInto(w.xView, x, lo, hi)
			logits := w.model.Forward(w.xView, true)
			w.lossGrad = tensor.Ensure(w.lossGrad, logits.Shape...)
			nn.SoftmaxCrossEntropyInto(w.lossGrad, logits, labels[lo:hi])
			w.model.Backward(w.lossGrad)
			// Weight by actual slice size so the group average is
			// the full-batch mean gradient.
			scale := float32(hi-lo) * float32(len(lv)) / float32(n)
			for _, gr := range w.model.Grads() {
				tensor.Scale(scale, gr)
			}
		}
		// Intra-group SSGD: average gradients over the ring.
		w.gradFlat = flattenInto(w.gradFlat, w.model.Grads())
		if len(lv) > 1 {
			// Gradient payload entering group sync (4 bytes/float);
			// the transport counters see the ring's chunked wire
			// traffic, this sees the logical volume.
			w.cGradBytes.Add(int64(4 * len(w.gradFlat)))
		}
		if err := RingAllReduceAverage(w.node, lv, w.gradFlat); err != nil {
			iterSpan.End()
			return err
		}
		unflatten(w.gradFlat, w.model.Grads())
		w.opt.Step(w.params)
		w.cIters.Inc()
		iterSpan.End()
	}

	if w.clock.crashedAt(epoch, transport.IterEpochEnd) {
		return errSelfCrash
	}
	leaders := r.leaders()

	// Delayed aggregation: leaders average weights across groups,
	// then each leader broadcasts within its group. Batch-norm
	// running statistics travel with the weights.
	w.syncFlat = flattenInto(w.syncFlat, w.sync)
	if me == lv[0] {
		if err := RingAllReduceAverage(w.node, leaders, w.syncFlat); err != nil {
			return err
		}
	}
	if err := Broadcast(w.node, lv, lv[0], w.syncFlat); err != nil {
		return err
	}
	unflatten(w.syncFlat, w.sync)

	if me == leaders[0] {
		return w.rep.epochEnd(epoch, w.model)
	}
	return nil
}
