// Package plan is the auto-parallelization planner: it searches the
// combined split space — data-parallel group count × pipeline depth ×
// micro-batch count × stage placement onto PCBs — and prices every
// candidate on the same calibrated models the runtime executes against
// (cluster.StepTime for compute, internal/simnet for activation
// transfers, internal/collective for gradient rings). The returned
// Plan is executed verbatim by the runtime, and both executing
// strategies in internal/core price their epochs through this
// package's Pricer — Pipeline through GroupTiming and
// CrossGroupSyncSeconds, SoCFlow through MemberBatches and DataTiming —
// so the planner's prediction and the executed timeline are one
// formula in either mode.
//
// What that formula depends on lives here too, once, for the search
// and internal/core alike: the integrity-greedy and strided mappers,
// the conflict graph and its communication-group coloring
// (mapping.go), UpdateSeconds and OverlapFraction.
//
// The search generalizes the serving plane's partitioner to training:
// stages are balanced under serve.TrainingWeight (3× forward FLOPs +
// parameter residency) instead of the forward-only serving weight, and
// stage boundaries carry traffic both ways (forward activations and
// backward input-gradients).
//
// Everything is deterministic: fixed enumeration order, strict `<`
// improvement, and the seeded micro model used only for the layer-cost
// shape walk. Same Options, same Plan — always.
package plan

import (
	"fmt"
	"math"
	"slices"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/nn"
	"socflow/internal/serve"
	"socflow/internal/simnet"
)

// Mode is the within-group parallelization a plan chose.
type Mode string

// Within-group modes.
const (
	// ModeData replicates the model on every group member and runs
	// synchronous SGD with per-iteration ring all-reduce (the SoCFlow
	// default).
	ModeData Mode = "data"
	// ModePipeline splits the model's layers across the group's members
	// and streams GPipe-style micro-batches through the stages;
	// gradients for each stage stay on its SoC, so per-iteration
	// synchronization disappears entirely (cross-group averaging happens
	// once per epoch, delayed-aggregation style).
	ModePipeline Mode = "pipeline"
)

// DefaultActivationScale maps micro activation volumes to paper scale —
// the (32/8)² area ratio between paper and micro inputs. Mirrors the
// serving engine's default.
const DefaultActivationScale = 16

// OverlapFraction is the share of a gradient transfer that layer-wise
// computing-communication overlap (§4.1 optimization 1) hides behind
// the backward pass that produces the gradients: deep-layer gradients
// ship while shallow layers still compute, so only the first layers'
// worth of transfer serializes. Every schedule that overlaps — the
// Fig. 7 kernel below and core's SyncSGD baselines — reads this one
// constant.
const OverlapFraction = 0.75

// UpdateSeconds prices one optimizer step, for the planner and for
// every executed strategy in internal/core alike: each parameter is
// touched ~3 times (grad read, velocity update, weight write — 12
// bytes) at an LPDDR5-bound effective 20 GB/s.
func UpdateSeconds(spec *nn.Spec) float64 { return float64(spec.Params) * 12 / 20e9 }

// Plan is one point in the parallelization space, priced and ready to
// execute.
type Plan struct {
	// NumSoCs is the cluster size the plan was searched for.
	NumSoCs int
	// Mode is the within-group parallelization.
	Mode Mode
	// Placement[g] lists group g's member SoC IDs. In pipeline mode,
	// member i of each group runs stage i; members beyond the pipeline
	// depth idle (the search only keeps such plans when they still win).
	// In data mode the search places groups by IntegrityGreedyMap, the
	// mapping core.SoCFlow executes.
	Placement [][]int
	// Stages is the balanced layer partition (pipeline mode only).
	Stages []serve.Stage
	// MicroBatches is GPipe's M: how many micro-batches each mini-batch
	// is split into (pipeline mode only).
	MicroBatches int
	// Batch is the per-group mini-batch the plan was priced at.
	Batch int

	// EpochSeconds is the predicted epoch makespan of this plan.
	EpochSeconds float64
	// DataEpochSeconds is the best pure data-parallel candidate's
	// predicted epoch makespan — the planner's own baseline, reported so
	// callers can see the margin the chosen plan wins by.
	DataEpochSeconds float64
	// Candidates is how many plans the search priced.
	Candidates int
}

// Groups returns the data-parallel group count.
func (p *Plan) Groups() int { return len(p.Placement) }

// Depth returns the pipeline depth (1 for data-parallel plans).
func (p *Plan) Depth() int {
	if p.Mode == ModePipeline {
		return len(p.Stages)
	}
	return 1
}

// String renders the plan compactly for reports, e.g.
// "pipeline n=4 d=8 M=4 b=8" or "data n=8 k=4 b=64".
func (p *Plan) String() string {
	if p == nil {
		return "<nil plan>"
	}
	if p.Mode == ModePipeline {
		return fmt.Sprintf("pipeline n=%d d=%d M=%d b=%d", p.Groups(), p.Depth(), p.MicroBatches, p.Batch)
	}
	k := 0
	if len(p.Placement) > 0 {
		k = len(p.Placement[0])
	}
	return fmt.Sprintf("data n=%d k=%d b=%d", p.Groups(), k, p.Batch)
}

// Validate checks the plan is internally consistent and executable on
// a NumSoCs-wide cluster. A data plan's groups may differ in size — the
// integrity-greedy mapping of a group count that does not divide the
// cluster — while a pipeline's groups all hold the same stage count.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("plan: nil plan")
	}
	if len(p.Placement) == 0 {
		return fmt.Errorf("plan: empty placement")
	}
	if p.Batch < 1 {
		return fmt.Errorf("plan: batch %d, want >= 1", p.Batch)
	}
	seen := make(map[int]bool)
	k := len(p.Placement[0])
	for g, members := range p.Placement {
		if len(members) == 0 {
			return fmt.Errorf("plan: group %d is empty", g)
		}
		if len(members) != k && p.Mode != ModeData {
			return fmt.Errorf("plan: group %d has %d members, group 0 has %d", g, len(members), k)
		}
		for _, soc := range members {
			if soc < 0 || (p.NumSoCs > 0 && soc >= p.NumSoCs) {
				return fmt.Errorf("plan: group %d places SoC %d outside the %d-SoC cluster", g, soc, p.NumSoCs)
			}
			if seen[soc] {
				return fmt.Errorf("plan: SoC %d placed twice", soc)
			}
			seen[soc] = true
		}
	}
	switch p.Mode {
	case ModeData:
		if len(p.Stages) != 0 {
			return fmt.Errorf("plan: data mode with %d pipeline stages", len(p.Stages))
		}
	case ModePipeline:
		d := len(p.Stages)
		if d < 2 {
			return fmt.Errorf("plan: pipeline mode needs >= 2 stages, have %d", d)
		}
		if d > k {
			return fmt.Errorf("plan: %d stages for %d-member groups", d, k)
		}
		if p.MicroBatches < 1 {
			return fmt.Errorf("plan: pipeline mode needs MicroBatches >= 1, have %d", p.MicroBatches)
		}
		if p.MicroBatches > p.Batch {
			return fmt.Errorf("plan: %d micro-batches for batch %d", p.MicroBatches, p.Batch)
		}
		// Stages cut the layer sequence into contiguous runs from layer 0
		// (the runtime slices the model by them), and the pricer shares
		// the epoch-end sync out by their parameters.
		var params int64
		for i, st := range p.Stages {
			if st.From > st.To || (i == 0 && st.From != 0) || (i > 0 && st.From != p.Stages[i-1].To+1) {
				return fmt.Errorf("plan: stage %d covers layers [%d, %d], want contiguous stages from layer 0", i, st.From, st.To)
			}
			if !(st.FLOPs >= 0) || math.IsInf(st.FLOPs, 1) || st.Params < 0 || st.OutElems < 0 {
				return fmt.Errorf("plan: stage %d has FLOPs %v, %d params, %d output elements", i, st.FLOPs, st.Params, st.OutElems)
			}
			params += st.Params
		}
		if params == 0 {
			return fmt.Errorf("plan: pipeline stages hold no parameters")
		}
	default:
		return fmt.Errorf("plan: unknown mode %q", p.Mode)
	}
	return nil
}

// IterationsPerEpoch returns how many iterations one epoch runs at
// paper scale: the groups share the sample budget, exactly as the
// executed SoCFlow timeline counts (Eq. 1 numerator). Dividing by the
// group count and then by the batch floors to the same quotient as
// dividing by their product, which can overflow.
func (p *Plan) IterationsPerEpoch(samples int) int {
	iters := samples / len(p.Placement) / p.Batch
	if iters < 1 {
		iters = 1
	}
	return iters
}

// EpochSecondsOn prices the plan's epoch makespan on the given cluster
// and model with a fresh Pricer. Hot loops (the search, the executing
// strategy) hold one Pricer instead.
func (p *Plan) EpochSecondsOn(clu *cluster.Cluster, spec *nn.Spec, samples int) float64 {
	return NewPricer(clu, spec).EpochSeconds(p, samples)
}

// Timing is the priced steady-state schedule of one pipeline group.
type Timing struct {
	// StageSeconds[i] is stage i's compute time for one micro-batch.
	StageSeconds []float64
	// XferSeconds[i] is the boundary i→i+1 activation/gradient transfer
	// time for one micro-batch (forward activations one way, backward
	// input-gradients the other, priced as concurrent simnet flows).
	XferSeconds []float64
	// Bottleneck is the slowest slot (stage compute + its outgoing
	// transfer) — the pipeline's initiation interval.
	Bottleneck float64
	// UpdateSeconds is the per-iteration optimizer cost: stages update
	// their own parameters in parallel, so the largest stage's share.
	UpdateSeconds float64
	// IterSeconds is one mini-batch through the pipeline at steady
	// state: (M + d - 1) bottleneck slots plus the update.
	IterSeconds float64
}

// Pricer prices plans for one cluster + model pair. Not safe for
// concurrent use.
//
// A price has two kinds of terms. The network terms — ring, broadcast
// and stage-boundary windows — are pure functions of topology and
// payload, so the Pricer remembers each distinct one for as long as it
// lives (one Search, one strategy run) and simulates it once: rings and
// broadcasts by canonical member shape in a collective.Memo, boundary
// transfers by (same PCB?, bytes). The compute terms (Clu.StepTime,
// MemberBatches) read the SoCs' live DVFS throttle and are recomputed
// on every call: core's strategies hold one Pricer across epochs while
// the throttles move.
type Pricer struct {
	Clu  *cluster.Cluster
	Spec *nn.Spec
	// ActScale maps micro activation elements to paper-scale bytes
	// (default DefaultActivationScale).
	ActScale float64

	net  *collective.Memo
	xfer map[boundary]float64

	// Scratch, reused across calls.
	members []int     // ring leaders, stage-ring members
	batches []int     // MemberBatches
	rings   [][]int   // one CG's active groups
	compute []float64 // EpochSeconds' per-group step times
	ready   []float64 // DataTiming's per-CG clocks
	timing  Timing    // EpochSeconds' per-group pipeline timing
}

// boundary identifies a stage-boundary transfer up to link renaming.
type boundary struct {
	samePCB bool
	bytes   float64
}

// NewPricer builds a pricer that has priced nothing yet.
func NewPricer(clu *cluster.Cluster, spec *nn.Spec) *Pricer {
	return &Pricer{
		Clu: clu, Spec: spec, ActScale: DefaultActivationScale,
		net: collective.NewMemo(), xfer: make(map[boundary]float64),
	}
}

// EpochSeconds prices one epoch of the plan at paper scale: a pipeline
// plan as core.Pipeline executes it, a data plan as core.SoCFlow
// executes it in FP32 on the plan's placement — member batches from
// MemberBatches, communication groups from the placement's conflict
// coloring, the schedule from DataTiming.
func (pr *Pricer) EpochSeconds(p *Plan, samples int) float64 {
	iters := p.IterationsPerEpoch(samples)
	if p.Mode == ModePipeline {
		worst := 0.0
		wTotal, pTotal := stageTotals(p.Stages)
		for g := range p.Placement {
			pr.groupTiming(p, g, wTotal, pTotal, &pr.timing)
			worst = max(worst, pr.timing.IterSeconds)
		}
		return float64(iters)*worst + pr.CrossGroupSyncSeconds(p)
	}
	compute := append(pr.compute[:0], make([]float64, len(p.Placement))...)
	pr.compute = compute
	for g, members := range p.Placement {
		for i, b := range pr.MemberBatches(members, p.Batch, true) {
			compute[g] = max(compute[g], pr.Clu.StepTime(members[i], pr.Spec, b, cluster.CPU))
		}
	}
	m := Mapping{Groups: p.Placement, SoCsPerPCB: pr.Clu.Config.SoCsPerPCB}
	t := pr.DataTiming(p.Placement, m.CommunicationGroups(), nil, compute, iters)
	return t.Span + t.AggSeconds
}

// GroupTiming prices group g's pipeline steady state. Stage compute is
// the stage's TrainingWeight share of the full training step on its
// SoC (the per-batch dispatch overhead is paid once per stage per
// micro-batch — splitting a model does not split the runtime's launch
// cost, which is exactly what makes over-deep pipelines lose).
func (pr *Pricer) GroupTiming(p *Plan, g int) Timing {
	var t Timing
	wTotal, pTotal := stageTotals(p.Stages)
	pr.groupTiming(p, g, wTotal, pTotal, &t)
	return t
}

// stageTotals sums the stages' training weights and parameter counts.
func stageTotals(stages []serve.Stage) (weight float64, params int64) {
	for _, st := range stages {
		weight += st.TrainingWeight()
		params += st.Params
	}
	return weight, params
}

// groupTiming is GroupTiming into t, reusing t's slices, given the
// plan's stageTotals.
func (pr *Pricer) groupTiming(p *Plan, g int, wTotal float64, pTotal int64, t *Timing) {
	d := len(p.Stages)
	mb := p.Batch / p.MicroBatches
	if mb < 1 {
		mb = 1
	}
	*t = Timing{
		StageSeconds: slices.Grow(t.StageSeconds[:0], d)[:d],
		XferSeconds:  slices.Grow(t.XferSeconds[:0], d-1)[:d-1],
	}
	for i, st := range p.Stages {
		soc := p.Placement[g][i]
		overhead := cluster.CPUBatchOverhead / pr.Clu.SoCs[soc].Throttle
		full := pr.Clu.StepTime(soc, pr.Spec, mb, cluster.CPU)
		t.StageSeconds[i] = (full-overhead)*st.TrainingWeight()/wTotal + overhead
		if frac := float64(st.Params) / float64(pTotal) * UpdateSeconds(pr.Spec); frac > t.UpdateSeconds {
			t.UpdateSeconds = frac
		}
	}
	for i := 0; i < d-1; i++ {
		bytes := float64(p.Stages[i].OutElems) * pr.ActScale * 4 * float64(mb)
		t.XferSeconds[i] = pr.boundarySeconds(p.Placement[g][i], p.Placement[g][i+1], bytes)
	}
	for i := 0; i < d; i++ {
		slot := t.StageSeconds[i]
		if i < d-1 {
			slot += t.XferSeconds[i]
		}
		if slot > t.Bottleneck {
			t.Bottleneck = slot
		}
	}
	t.IterSeconds = float64(p.MicroBatches+d-1)*t.Bottleneck + t.UpdateSeconds
}

// boundarySeconds prices one micro-batch crossing a stage boundary:
// the forward activations and the previous micro-batch's backward
// input-gradients are in flight simultaneously at steady state, on
// opposite directions of the same SoC pair.
func (pr *Pricer) boundarySeconds(a, b int, bytes float64) float64 {
	if a == b {
		return 0
	}
	key := boundary{pr.Clu.SamePCB(a, b), bytes}
	t, ok := pr.xfer[key]
	if !ok {
		t = simnet.Simulate([]*simnet.Flow{
			pr.Clu.Flow("act.fwd", a, b, bytes, 0),
			pr.Clu.Flow("act.bwd", b, a, bytes, 0),
		})
		pr.xfer[key] = t
	}
	return t
}

// CrossGroupSyncSeconds prices the pipeline plan's per-epoch delayed
// aggregation: each stage position averages its parameter slice across
// groups with a ring all-reduce over the SoCs holding that stage. The
// windows run sequentially — they contend on the same PCB uplinks —
// which is also how the executing strategy schedules them.
func (pr *Pricer) CrossGroupSyncSeconds(p *Plan) float64 {
	n := len(p.Placement)
	if n < 2 || p.Mode != ModePipeline {
		return 0
	}
	_, pTotal := stageTotals(p.Stages)
	if cap(pr.members) < n {
		pr.members = make([]int, n)
	}
	members := pr.members[:n]
	var sum float64
	for i, st := range p.Stages {
		for g := range p.Placement {
			members[g] = p.Placement[g][i]
		}
		payload := float64(st.Params) / float64(pTotal) * float64(pr.Spec.GradBytes())
		sum += pr.net.RingAllReduceTime(pr.Clu, members, payload)
	}
	return sum
}

// MemberBatches splits a logical group's mini-batch across its members
// — the one member-batch rule of the executed SoCFlow timeline and of
// the planner's data candidates. With rebalance (§4.1 optimization 2,
// underclocking-aware) each share follows the SoC's DVFS throttle so
// the SSGD step finishes together; without it every member gets an
// equal share and the most throttled SoC sets the pace. Nobody gets
// less than one sample. The returned slice is scratch, valid until the
// next call.
func (pr *Pricer) MemberBatches(members []int, batch int, rebalance bool) []int {
	var total float64
	for _, soc := range members {
		total += pr.Clu.SoCs[soc].Throttle
	}
	pr.batches = pr.batches[:0]
	for _, soc := range members {
		share := 1 / float64(len(members))
		if rebalance {
			share = pr.Clu.SoCs[soc].Throttle / total
		}
		pr.batches = append(pr.batches, max(int(share*float64(batch)+0.5), 1))
	}
	return pr.batches
}

// DataTiming is the priced schedule of one grouped data-parallel epoch.
type DataTiming struct {
	// CGSync[i] is communication group i's window: its active groups'
	// ring all-reduces running concurrently, for one iteration.
	CGSync []float64
	// Span is the makespan of the epoch's interleaved iterations.
	Span float64
	// AggSeconds is the epoch-end delayed aggregation: the leader ring
	// plus the slowest intra-group broadcast of the fresh weights.
	AggSeconds float64
}

// DataTiming prices one epoch of group-wise data parallelism with
// delayed aggregation (§3.1) — the schedule core.SoCFlow executes and
// the planner's data candidates are priced with. groups[g] lists
// logical group g's SoCs, cgs partitions the group indices into
// communication groups in schedule order, compute[g] is group g's
// per-iteration step time, and active masks the groups training this
// epoch (nil: all of them). A preempted group neither computes nor
// communicates, but its CG keeps its turn in the schedule.
func (pr *Pricer) DataTiming(groups, cgs [][]int, active []bool, compute []float64, iters int) DataTiming {
	on := func(g int) bool { return active == nil || active[g] }
	payload := float64(pr.Spec.GradBytes())
	upd := UpdateSeconds(pr.Spec)

	// Per-CG concurrent sync time (only active groups communicate).
	t := DataTiming{CGSync: make([]float64, len(cgs))}
	for i, cg := range cgs {
		rings := pr.rings[:0]
		for _, g := range cg {
			if on(g) && len(groups[g]) > 1 {
				rings = append(rings, groups[g])
			}
		}
		pr.rings = rings
		t.CGSync[i] = pr.net.ConcurrentRingTime(pr.Clu, rings, payload)
	}

	// Event-driven interleaved schedule (Fig. 7): CG windows serialize
	// on the shared NICs; compute of the next iteration overlaps other
	// CGs' windows; and layer-wise gradient aggregation (§4.1
	// optimization 1) lets a group's own sync start while its backward
	// pass is still producing gradients, hiding an OverlapFraction of
	// the compute behind the transfer.
	ready := append(pr.ready[:0], make([]float64, len(cgs))...)
	pr.ready = ready
	nicFree := 0.0
	for it := 0; it < iters; it++ {
		for i, cg := range cgs {
			maxCompute := 0.0
			for _, g := range cg {
				if on(g) && compute[g] > maxCompute {
					maxCompute = compute[g]
				}
			}
			// Sync may begin once the first gradients emerge from the
			// backward pass; the group itself is ready again when both
			// its compute and its CG's sync window have finished.
			syncReady := ready[i] + (1-OverlapFraction)*(maxCompute+upd)
			start := math.Max(syncReady, nicFree)
			end := start + t.CGSync[i]
			nicFree = end
			ready[i] = math.Max(end, ready[i]+maxCompute+upd)
		}
	}
	for _, r := range ready {
		if r > t.Span {
			t.Span = r
		}
	}

	// Delayed inter-group aggregation: leader ring + intra-group
	// broadcast of fresh weights.
	leaders := pr.members[:0]
	for g, members := range groups {
		if on(g) {
			leaders = append(leaders, members[0])
		}
	}
	pr.members = leaders
	if len(leaders) > 1 {
		t.AggSeconds = pr.net.RingAllReduceTime(pr.Clu, leaders, payload)
		var bMax float64
		for g, members := range groups {
			if !on(g) {
				continue
			}
			if b := pr.net.BroadcastTime(pr.Clu, members[0], members, payload); b > bMax {
				bMax = b
			}
		}
		t.AggSeconds += bMax
	}
	return t
}
