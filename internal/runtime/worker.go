package runtime

import (
	"context"
	"fmt"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// DistConfig describes a distributed SoCFlow training run on a mesh.
// The embedded JobSpec supplies the shared hyperparameters: GlobalBatch
// is BS_g, split across a group's members each iteration, and Seed
// drives model init, sharding, and batch order — every node derives
// the identical schedule from it.
type DistConfig struct {
	core.JobSpec
	// Groups maps each logical group to its member node IDs (e.g. from
	// plan.IntegrityGreedyMap).
	Groups [][]int
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
	// Recovery, when non-nil, switches the run onto the elastic track:
	// the mesh is stacked with transport.WithHeartbeat so failure is
	// *detected* by missed-beat timeout rather than derived from the
	// shared plan, a recovery manager supervises the workers in
	// barrier-delimited rounds, failed epochs retry from in-memory
	// snapshots under a bounded budget, and nodes listed in
	// Recovery.Rejoins are re-admitted with a leader-served state
	// transfer. DegradeOnFault is ignored on this track — degradation
	// emerges from detection, not plan consultation.
	Recovery *RecoveryConfig
	// Checkpoints, when non-nil, receives periodic automatic
	// checkpoints of the aggregated model, written by the global leader
	// at epoch boundaries on every track.
	Checkpoints *core.CheckpointStore
	// CheckpointEvery is the epoch stride between automatic
	// checkpoints; <=1 checkpoints every epoch. The final epoch is
	// always checkpointed.
	CheckpointEvery int
	// DegradeOnFault selects what an injected crash does to the run.
	// False (default): the crash is fatal — the first failing worker
	// tears the mesh down, every peer unwinds, and RunDistributed
	// returns the joined worker errors. True: the crashed member's
	// group shrinks to the survivors, which re-split the group batch
	// and re-normalize the gradient average; leadership moves to the
	// first surviving member. Because the plan is shared configuration,
	// every node derives the same membership timeline without any extra
	// coordination — the paper's group-preemption story (§6.2).
	DegradeOnFault bool
}

// degraded reports whether the run is in shrink-and-continue mode.
func (cfg *DistConfig) degraded() bool { return cfg.DegradeOnFault && cfg.Faults != nil }

// live returns the members of a group still alive at (epoch, iter):
// the full list unless degradation is on.
func (cfg *DistConfig) live(members []int, epoch, iter int) []int {
	if !cfg.degraded() {
		return members
	}
	return cfg.Faults.Live(members, epoch, iter)
}

// epochLeaders returns the leader ring at the end of an epoch — the
// first live member of every group that still has survivors. The first
// entry is the global leader, which evaluates and reports.
func (cfg *DistConfig) epochLeaders(epoch int) (leaders []int) {
	for _, members := range cfg.Groups {
		lv := cfg.live(members, epoch, transport.IterEpochEnd)
		if len(lv) > 0 {
			leaders = append(leaders, lv[0])
		}
	}
	return leaders
}

// DistResult is what RunDistributed reports.
type DistResult struct {
	// EpochAccuracies is validation accuracy after each epoch,
	// evaluated by the global leader (all groups agree after the
	// inter-group aggregation). Indexed by epoch; under degradation the
	// reporting node may change when leaders crash.
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

// RunDistributed executes SoCFlow's group-wise protocol for real: one
// goroutine per SoC over the mesh. Within a group, every member
// computes gradients on its slice of the group batch and the group
// ring-all-reduces them each iteration (SSGD); across groups, leaders
// ring-all-reduce the weights once per epoch and broadcast them back
// to their members (delayed aggregation); shards reshuffle across
// groups between epochs. The protocol, message layout, and schedule
// are what the paper's prototype runs over TCP.
//
// Failure domain: the first worker to fail closes the mesh, which
// errors out every peer blocked in a collective, so the run unwinds
// instead of deadlocking; all worker errors are joined into the
// returned error. Cancelling ctx closes the mesh the same way and
// RunDistributed returns ctx.Err(). With cfg.Faults set, scripted
// faults are injected; with cfg.DegradeOnFault, crashes shrink groups
// instead of aborting the run.
func RunDistributed(ctx context.Context, mesh transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset, cfg DistConfig) (*DistResult, error) {
	numNodes := mesh.Size()
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("runtime: no groups")
	}
	nodeGroup := make([]int, numNodes)
	for i := range nodeGroup {
		nodeGroup[i] = -1
	}
	for g, members := range cfg.Groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("runtime: empty group %d", g)
		}
		for _, m := range members {
			if m < 0 || m >= numNodes {
				return nil, fmt.Errorf("runtime: member %d outside mesh of %d", m, numNodes)
			}
			if nodeGroup[m] != -1 {
				return nil, fmt.Errorf("runtime: node %d in two groups", m)
			}
			nodeGroup[m] = g
		}
	}
	if cfg.Epochs <= 0 || cfg.GlobalBatch <= 0 {
		return nil, fmt.Errorf("runtime: epochs=%d batch=%d", cfg.Epochs, cfg.GlobalBatch)
	}
	var workers []int
	for id, g := range nodeGroup {
		if g >= 0 { // other nodes host no worker (e.g. spare SoCs)
			workers = append(workers, id)
		}
	}
	rep := newReporter(&cfg, val)
	if cfg.Recovery != nil {
		// Elastic track: no survivor precheck — liveness is discovered
		// at runtime by the failure detector, and preempted nodes may
		// come back.
		err := runElastic(ctx, mesh, &cfg, rep.res, "worker", workers, &dpPolicy{groups: cfg.Groups}, nil,
			func(m *roundManager, node transport.Node) error {
				w := newDPWorker(node, spec, train, &cfg, nodeGroup[node.ID()], rep)
				w.clock.plan = cfg.Faults
				e := &elasticState{mgr: m, node: node, clock: &w.clock, weights: w.weights, state: w.state, shipVel: true}
				return e.run(w)
			})
		if err != nil {
			return nil, err
		}
		return rep.res, nil
	}
	if cfg.degraded() {
		if len(cfg.epochLeaders(cfg.Epochs-1)) == 0 {
			return nil, fmt.Errorf("runtime: fault plan leaves no survivor to finish the run")
		}
	}
	// Metering sits inside the fault decorator: injected failures move
	// no bytes and stay uncounted, while straggler-delayed traffic still
	// meters once it flows.
	if cfg.Metrics != nil {
		mesh = transport.WithMetrics(mesh, cfg.Metrics)
	}
	if cfg.Faults != nil {
		mesh = transport.WithFaults(mesh, cfg.Faults)
	}
	p := newPool(cfg.Metrics, "worker", func() { mesh.Close() }, func(id int) error {
		w := newDPWorker(mesh.Node(id), spec, train, &cfg, nodeGroup[id], rep)
		if cfg.degraded() {
			w.clock.plan = cfg.Faults
		}
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			if err := w.runEpoch(epoch, nil); err != nil {
				if err == errSelfCrash {
					// Injected preemption in degraded mode: a clean exit,
					// and the survivors' membership views — all derived
					// from the shared plan — exclude this worker from the
					// same point on.
					return nil
				}
				return err
			}
		}
		return nil
	})
	for _, id := range workers {
		p.launch(id)
	}
	if err := p.wait(ctx); err != nil {
		return nil, err
	}
	return rep.res, nil
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

	// Instruments resolve once per worker; on a nil registry they are
	// nil and every use is a free no-op.
	cGradBytes, cIters *metrics.Counter
}

func newDPWorker(node transport.Node, spec *nn.Spec, train *dataset.Dataset, cfg *DistConfig, group int, rep *reporter) *dpWorker {
	w := &dpWorker{node: node, cfg: cfg, group: group, rep: rep}
	w.sched = dataset.Schedule{Train: train, Batch: cfg.GlobalBatch, Seed: cfg.Seed}
	w.clock = newFaultClock(node, cfg.Metrics)
	// Identical init everywhere: same seed, same stream. A rejoiner
	// rebuilds the same shell and then overwrites it with the
	// transferred state.
	w.model = spec.BuildMicro(tensor.NewRNG(cfg.Seed), train.Channels(), train.ImageSize(), train.Classes)
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

// runEpoch is one data-parallel epoch. Membership comes from the
// round's frozen view on the elastic track (r != nil) — a re-admitted
// node re-expands the split at exactly that boundary — and from the
// shared fault plan, re-derived per iteration, on the plain one.
// Returns errSelfCrash at the worker's own preemption point.
func (w *dpWorker) runEpoch(epoch int, r *round) error {
	cfg := w.cfg
	me := w.node.ID()
	reg := cfg.Metrics
	live := func(iter int) []int {
		if r != nil {
			return r.groups[w.group]
		}
		return cfg.live(cfg.Groups[w.group], epoch, iter)
	}
	epochSpan := reg.BeginSpan("epoch", "worker", me)
	defer epochSpan.End()
	shards := w.sched.Shards(len(cfg.Groups), epoch)
	// The iterator consumes the full configured global batch; the
	// proportional split below spreads any remainder over members
	// instead of silently truncating the batch. Its seed is this track's
	// own (one per epoch, shared by all groups), not the schedule's.
	it := dataset.NewBatchIterator(shards[w.group], cfg.GlobalBatch, cfg.Seed+uint64(100+epoch))
	iters := it.BatchesPerEpoch()
	for i := 0; i < iters; i++ {
		if w.clock.crashedAt(epoch, i) {
			return errSelfCrash
		}
		iterSpan := reg.BeginSpan("iter", "worker", me)
		lv := live(i)
		rank := rankOf(me, lv)
		if rank < 0 {
			return fmt.Errorf("runtime: worker %d missing from its group membership", me)
		}
		x, labels := it.Next()
		// This member's slice of the group batch; slice bounds are
		// proportional, so ragged batches split without loss.
		n := x.Shape[0]
		lo := rank * n / len(lv)
		hi := (rank + 1) * n / len(lv)
		w.model.ZeroGrad()
		if hi > lo {
			xm := tensor.Rows(x, lo, hi)
			logits := w.model.Forward(xm, true)
			_, g := nn.SoftmaxCrossEntropy(logits, labels[lo:hi])
			w.model.Backward(g)
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
	lv := live(transport.IterEpochEnd)
	leaders := cfg.epochLeaders(epoch)
	if r != nil {
		leaders = r.leaders()
	}

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
