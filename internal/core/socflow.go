package core

import (
	"context"
	"fmt"
	"math"

	"socflow/internal/cluster"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

// MixedMode selects the on-SoC processor usage (§3.2 and the Fig. 14
// ablation variants).
type MixedMode int

// Mixed-precision variants.
const (
	// MixedAuto is full SoCFlow: CPU share = max(e^−α, 1−β).
	MixedAuto MixedMode = iota
	// MixedOff trains FP32 on the CPU only ("Ours-FP32").
	MixedOff
	// MixedINT8Only trains INT8 on the NPU only ("Ours-INT8").
	MixedINT8Only
	// MixedHalf fixes the split at 50/50 ("Ours-Half").
	MixedHalf
)

// String implements fmt.Stringer.
func (m MixedMode) String() string {
	switch m {
	case MixedAuto:
		return "mixed-auto"
	case MixedOff:
		return "fp32"
	case MixedINT8Only:
		return "int8"
	case MixedHalf:
		return "half"
	default:
		return fmt.Sprintf("mixed(%d)", int(m))
	}
}

// SoCFlow is the paper's strategy: group-wise parallelism with delayed
// aggregation plus data-parallel mixed-precision training. The Disable*
// flags exist for the Fig. 13 ablation ladder.
type SoCFlow struct {
	// NumGroups is the logical-group count N (the paper's evaluation
	// uses 8 logical groups of 4 SoCs at M=32). It must divide into at
	// least 1 SoC per group.
	NumGroups int
	// Mixed selects the processor mode (default MixedAuto).
	Mixed MixedMode
	// DisableMapping replaces integrity-greedy mapping with a strided
	// placement that maximizes PCB crossings (ablation "+Group" only).
	DisableMapping bool
	// DisablePlanning puts every logical group in one communication
	// group so their syncs contend (ablation "+Mapping" without
	// "+Plan").
	DisablePlanning bool
	// DisableReshuffle keeps each group pinned to its initial shard,
	// degenerating toward federated behaviour across groups.
	DisableReshuffle bool
	// AlphaProbeBatch is the validation probe size for Eq. 4 (default
	// 32).
	AlphaProbeBatch int
	// ForceShare fixes the CPU share to a constant in (0,1] instead of
	// the α/β controller (0 keeps the controller; used by ablations).
	ForceShare float64
	// Preempt optionally injects user-workload arrivals (co-location);
	// see scheduler.go.
	Preempt *PreemptionPlan
	// WarmStart seeds every replica from this model's weights instead
	// of fresh initialization — the transfer-learning entry point
	// (Table 2's ResNet50-Finetune scenario).
	WarmStart *nn.Sequential
	// DisableRebalance turns off underclocking-aware workload
	// rebalancing (§4.1 optimization 2): member batch shares then stay
	// equal and a throttled SoC drags its whole group.
	DisableRebalance bool
	// Thermal optionally applies per-epoch DVFS throttle factors
	// (Thermal[epoch][soc], from cluster.ThermalTrace) before the
	// epoch is priced, driving the underclocking-aware rebalancing.
	Thermal [][]float64
	// DirichletAlpha, when positive, makes the *initial* shards non-IID
	// (per-class Dirichlet proportions). Unlike federated learning,
	// SoCFlow reshuffles data across groups every epoch (§3.1), so the
	// skew washes out after the first epoch — unless DisableReshuffle
	// is also set.
	DirichletAlpha float64
}

// Name implements Strategy.
func (s *SoCFlow) Name() string { return "SoCFlow" }

// Run implements Strategy.
func (s *SoCFlow) Run(ctx context.Context, job *Job, clu *cluster.Cluster) (*Result, error) {
	return runOne(ctx, job, clu, s)
}

// trainingKey is nil: SoCFlow's epochs read the cluster (α, throttles,
// preemption) as they train, so each run trains alone.
func (s *SoCFlow) trainingKey(*cluster.Cluster) any { return nil }

// build groups, maps and plans the cluster (§3.1 steps 1-3), builds one
// replica per logical group and returns SoCFlow's training and its
// price, which reads the active set and the CPU shares the attempt
// trained with.
func (s *SoCFlow) build(job *Job, clu *cluster.Cluster, _ *training, res *Result, meter *cluster.EnergyMeter) (*training, epochPrice, error) {
	m := clu.Config.NumSoCs
	n := s.NumGroups
	if n <= 0 {
		return nil, nil, fmt.Errorf("core: SoCFlow needs NumGroups >= 1 (use SelectGroupCount to size it)")
	}
	if n > m {
		return nil, nil, fmt.Errorf("core: %d groups for %d SoCs", n, m)
	}

	nodes := autoplan.AllNodes(m)
	mapping := autoplan.IntegrityGreedyMap(nodes, n, clu.Config.SoCsPerPCB)
	if s.DisableMapping {
		mapping = autoplan.StridedMap(nodes, n, clu.Config.SoCsPerPCB)
	}
	cgs := mapping.CommunicationGroups()
	if s.DisablePlanning {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		cgs = [][]int{all}
	}

	probeBatch := s.AlphaProbeBatch
	if probeBatch == 0 {
		probeBatch = 32
	}

	root := tensor.NewRNG(job.Seed)
	ref := job.BuildModel(root)
	if s.WarmStart != nil {
		ref.CopyWeightsFrom(s.WarmStart)
	}
	groups := make([]*replica, n)
	beta := clu.ComputeRatio(mapping.Groups[0][0], job.Spec, job.PricingBatch())
	for g := 0; g < n; g++ {
		rng := root.Split(uint64(g) + 10)
		if s.Mixed == MixedOff {
			groups[g] = newReplica(job, rng, ref)
			continue
		}
		build := func() *nn.Sequential { return job.BuildModel(rng.Split(1)) }
		mp := NewMixedPrecision(ref, build, job.LR, job.Momentum, beta, rng)
		switch s.Mixed {
		case MixedINT8Only:
			mp.ForceCPUShare = 0
		case MixedHalf:
			mp.ForceCPUShare = 0.5
		}
		if s.ForceShare > 0 {
			mp.ForceCPUShare = s.ForceShare
		}
		groups[g] = &replica{mp: mp, model: mp.FP32, opt: mp.cpuOpt}
	}
	sched := &dataset.Schedule{Train: job.Train, Batch: job.GlobalBatch, Seed: job.Seed,
		DirichletAlpha: s.DirichletAlpha, Pinned: s.DisableReshuffle}
	tl := &timeline{job: job, clu: clu, mapping: mapping, cgs: cgs, s: s, res: res, meter: meter,
		pricer: autoplan.NewPricer(clu, job.Spec)}

	shares := make([]float64, n) // per group: the CPU share that set this epoch's split
	var active []int             // the groups the last attempt trained
	tr := &training{reps: groups, attempt: func(ctx context.Context, epoch int) int {
		active = s.activeGroups(n, epoch)

		// Apply this epoch's DVFS throttle trace (if any).
		if epoch < len(s.Thermal) {
			for soc, f := range s.Thermal[epoch] {
				if soc < m && f > 0 && f <= 1 {
					clu.SetThrottle(soc, f)
				}
			}
		}

		// Functional training: each active group walks its shard once and
		// then ends its own epoch — α refresh on the validation probe and
		// the Eq. 5 merge (§3.2) — as its SoCs would, while the other
		// groups do the same. Groups only interact at the cross-group
		// aggregation below — each owns its model, optimizer, iterator,
		// probe buffers and RNG — so whole per-group epochs run
		// concurrently, mirroring the real cluster where logical groups
		// train simultaneously on disjoint SoCs. Per-group math is
		// unchanged from the sequential order, so seeded results are
		// bit-identical at every parallelism level.
		//
		// The performance track prices the epoch with the α that governed
		// its data split, so the CPU shares are read before EndEpoch
		// refreshes them. Pricing reads no weights, so it follows the
		// aggregation below.
		act := make([]*replica, len(active))
		its := make([]*dataset.BatchIterator, len(active))
		for ai, g := range active {
			act[ai] = groups[g]
			its[ai] = sched.Iterator(n, g, epoch)
			if mp := groups[g].mp; mp != nil {
				shares[g] = mp.CPUShare()
			}
		}
		iters := sched.Steps(n, epoch)
		job.fanOut(len(active), func(ai int) {
			r := act[ai]
			for i := 0; i < iters; i++ {
				if ctx.Err() != nil {
					return
				}
				r.step(its[ai].Next())
			}
			if r.mp != nil {
				r.mp.EndEpoch(job.Val, probeBatch)
			}
		})
		if ctx.Err() != nil {
			return 0
		}

		// Delayed aggregation across groups (per epoch): average the
		// merged weights, then requantize the INT8 replicas.
		if len(act) > 1 {
			averageReplicas(act)
			for _, r := range act {
				if r.mp != nil {
					r.mp.AdoptMerged()
				}
			}
		}
		return active[0]
	}}
	// With a registry attached, each attempt also publishes the plan
	// drift against the data plan of this mapping — what the planner
	// prices for it, in FP32 with every group active.
	var dataPlan *autoplan.Plan
	if job.Metrics != nil {
		dataPlan = &autoplan.Plan{NumSoCs: m, Mode: autoplan.ModeData, Placement: mapping.Groups, Batch: job.PricingBatch()}
	}
	return tr, func() float64 {
		span := tl.epochTime(active, shares)
		if dataPlan != nil {
			PublishPlanDrift(job.Metrics, tl.pricer.EpochSeconds(dataPlan, job.PaperSamples), span)
		}
		return span
	}, nil
}

// activeGroups returns the logical groups training this epoch,
// honouring the preemption plan (a preempted group checkpoints and
// sits the epoch out; §3: "SoCFlow only needs to terminate a logical
// group of SoCs").
func (s *SoCFlow) activeGroups(n, epoch int) []int {
	var out []int
	for g := 0; g < n; g++ {
		if s.Preempt != nil && s.Preempt.preempted(g, epoch) {
			continue
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		// Never preempt every group: the scheduler keeps at least one.
		out = append(out, 0)
	}
	return out
}

// timeline prices SoCFlow epochs on the simulated cluster: what is
// SoCFlow's own — the mixed-precision compute split, the active set,
// attribution, energy and spans — around the planner's Fig. 7 kernel
// (Pricer.DataTiming), which the search prices data plans with.
type timeline struct {
	job     *Job
	clu     *cluster.Cluster
	mapping *autoplan.Mapping
	cgs     [][]int // communication groups, in schedule order
	pricer  *autoplan.Pricer
	s       *SoCFlow
	res     *Result // receives the breakdown attribution and preemption count
	meter   *cluster.EnergyMeter

	simNow float64 // simulated clock position, for span placement
}

// cgOf returns the index of the communication group holding logical
// group g, or -1.
func cgOf(cgs [][]int, g int) int {
	for i, cg := range cgs {
		for _, lg := range cg {
			if lg == g {
				return i
			}
		}
	}
	return -1
}

// epochTime advances the simulated clock by one epoch under the Fig. 7
// interleaved schedule and charges the energy meter. shares[g] is the
// CPU share of active group g's mixed-precision split (unused under
// MixedOff, where every sample trains on the CPU).
func (tl *timeline) epochTime(active []int, shares []float64) float64 {
	job, clu, meter := tl.job, tl.clu, tl.meter
	nAll := len(tl.mapping.Groups)
	payload := float64(job.Spec.GradBytes())

	// Paper-scale iterations per epoch (Eq. 1 numerator).
	iters := job.PaperSamples / (len(active) * job.PricingBatch())
	if iters < 1 {
		iters = 1
	}
	upd := autoplan.UpdateSeconds(job.Spec)

	// Per-group compute time for one iteration.
	compute := make([]float64, nAll)
	cpuSec := make([]float64, nAll)
	npuSec := make([]float64, nAll)
	on := make([]bool, nAll)
	for _, g := range active {
		on[g] = true
		members := tl.mapping.Groups[g]
		for i, perSoC := range tl.pricer.MemberBatches(members, job.PricingBatch(), !tl.s.DisableRebalance) {
			soc := members[i]
			var ct, cs, ns float64
			if tl.s.Mixed != MixedOff {
				cpuN := int(math.Round(shares[g] * float64(perSoC)))
				npuN := perSoC - cpuN
				ct = clu.SplitStepTime(soc, job.Spec, cpuN, npuN)
				cs = clu.StepTime(soc, job.Spec, cpuN, cluster.CPU)
				ns = clu.StepTime(soc, job.Spec, npuN, cluster.NPU)
			} else {
				ct = clu.StepTime(soc, job.Spec, perSoC, cluster.CPU)
				cs = ct
			}
			// SSGD: the group's step finishes when its slowest member
			// does; energy follows each member's own busy time (use the
			// first member's profile as the group representative for
			// the per-member meter below).
			if ct > compute[g] {
				compute[g] = ct
			}
			if i == 0 {
				cpuSec[g], npuSec[g] = cs, ns
			}
		}
	}

	// The Fig. 7 interleaved schedule and the delayed aggregation: the
	// kernel the planner prices data plans with.
	t := tl.pricer.DataTiming(tl.mapping.Groups, tl.cgs, on, compute, iters)
	cgSync, interSync := t.CGSync, t.AggSeconds
	span := t.Span + interSync

	// Attribution and energy. Compute/update charge per iteration; sync
	// charges the group's CG window; the rest of the span is idle.
	reg := job.Metrics
	var simBytes float64
	fIters := float64(iters)
	for _, g := range active {
		members := tl.mapping.Groups[g]
		cgi := cgOf(tl.cgs, g)
		commT := fIters*cgSync[cgi] + interSync
		for _, soc := range members {
			meter.AddMixedCompute(soc, fIters*cpuSec[g], fIters*npuSec[g])
			meter.AddComm(soc, commT)
			idle := span - fIters*compute[g] - commT
			if idle > 0 {
				meter.AddIdle(soc, idle)
			}
		}
		tl.res.Breakdown.Compute += fIters * compute[g] * float64(len(members))
		tl.res.Breakdown.Sync += commT * float64(len(members))
		tl.res.Breakdown.Update += fIters * upd * float64(len(members))
		if reg != nil {
			// Simulated-clock spans, one compute+sync pair per group per
			// epoch. The real schedule interleaves CG windows; the spans
			// compress each group's epoch into its compute total followed
			// by its communication total — the right areas, laid end to
			// end — so the trace stays readable at fleet scale.
			comp := fIters * compute[g]
			reg.AddSimSpan("compute", "sim.group", g, tl.simNow, comp,
				map[string]float64{"iters": fIters, "cg": float64(cgi)})
			reg.AddSimSpan("sync", "sim.group", g, tl.simNow+comp, commT, nil)
			// Ring traffic: every member moves 2(n-1)/n · payload per
			// iteration, so the group moves 2(n-1) · payload.
			if n := len(members); n > 1 {
				simBytes += fIters * 2 * float64(n-1) * payload
			}
		}
	}
	if reg != nil {
		// Delayed aggregation: leader ring plus per-group broadcasts.
		if len(active) > 1 {
			simBytes += 2 * float64(len(active)-1) * payload
			for _, g := range active {
				if n := len(tl.mapping.Groups[g]); n > 1 {
					simBytes += float64(n-1) * payload
				}
			}
		}
		reg.Counter("sim.net.bytes").Add(int64(simBytes))
	}
	tl.simNow += span
	if tl.s.Preempt != nil {
		tl.res.Preemptions += len(tl.mapping.Groups) - len(active)
	}
	return span
}
