package runtime

import (
	"fmt"
	"slices"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

// Elastic pipeline recovery. The pipeline track's failure domain is
// wider than data parallelism's — losing one stage kills its whole
// group — so recovery is plan-level: the roundManager (recovery.go)
// runs the barrier, the heartbeat detector and the retries exactly as
// on the data-parallel track, and at the boundary after a membership
// change pipePolicy re-prices the situation, choosing between degrading
// the current plan in place (drop the broken groups) and re-invoking
// plan.Search restricted to the survivors (plan.Options.Nodes). Both
// candidates are priced by the same Pricer the original search used, so
// the adopted plan's EpochSeconds stays exactly the executed epoch's
// predicted cost — the PR 9 invariant survives recovery.
//
// State moves with the plan: every epoch ends with the leader-served
// full-model sync (pipeWorker.syncFullModel), so each placed node holds
// the aggregated model at boundaries and any survivor can seed a new
// placement. Nodes entering a placement without boundary state
// (newcomers) receive it from the lowest-numbered stateful survivor
// before training (elasticState.exchangeState). Optimizer
// velocities cannot cross a changed stage cut — a re-plan restarts
// momentum from zero (degrade-in-place keeps it: the cuts and stage
// indices are unchanged).

// ReplanEpisode records one replan-vs-degrade decision the elastic
// pipeline manager took after a membership change. Episodes are
// committed when the adopting round's epoch completes; a superseded
// decision (another failure before the epoch ever committed) is
// replaced, not recorded.
type ReplanEpisode struct {
	// Epoch is the round the new plan first ran.
	Epoch int `json:"epoch"`
	// Trigger is the membership change: "crash", "resize", or "rejoin".
	Trigger string `json:"trigger"`
	// Decision is "replan" (the fresh search on the survivors priced
	// better) or "degrade" (the restricted current plan priced no
	// worse; ties keep the incumbent to preserve momentum).
	Decision string `json:"decision"`
	// OldPlan and NewPlan are the compact Plan.String() forms.
	OldPlan string `json:"old_plan"`
	NewPlan string `json:"new_plan"`
	// PredictedEpochSeconds is the adopted plan's EpochSeconds at
	// decision time; ExecutedEpochSeconds re-prices the same plan with
	// the shared Pricer when its epoch commits. They are exactly equal
	// — prediction and execution share one formula.
	PredictedEpochSeconds float64 `json:"predicted_epoch_seconds"`
	ExecutedEpochSeconds  float64 `json:"executed_epoch_seconds"`
	// DetectToResumeSeconds is the wall-clock gap between detecting the
	// membership change and releasing the adopting round.
	DetectToResumeSeconds float64 `json:"detect_to_resume_seconds"`
}

// PlannerOptions completes search options from the run they plan: each
// zero field of o — Spec, NumSoCs (unless a Cluster sizes the search),
// GlobalBatch and Samples — comes from the model, the mesh size, the
// group batch and the training-set size. The facade searches a run's
// plan with it and the elastic pipeline track re-plans with it, so both
// price every candidate from one set of options.
func PlannerOptions(o autoplan.Options, spec *nn.Spec, numSoCs, batch, samples int) autoplan.Options {
	if o.Spec == nil {
		o.Spec = spec
	}
	if o.Cluster == nil && o.NumSoCs == 0 {
		o.NumSoCs = numSoCs
	}
	if o.GlobalBatch == 0 {
		o.GlobalBatch = batch
	}
	if o.Samples == 0 {
		o.Samples = samples
	}
	return o
}

// newPipePolicy builds the elastic pipeline track's policy around
// cfg.Plan. The re-planner and its pricer share cfg.Planner completed
// from the run and restricted to pipelines: the pricer prices degrade
// candidates and re-prices committed plans, so every number in a
// ReplanEpisode comes from one formula.
func newPipePolicy(cfg *DistConfig, spec *nn.Spec, numNodes, samples int) (*pipePolicy, error) {
	var o autoplan.Options
	if cfg.Planner != nil {
		o = *cfg.Planner
	}
	o = PlannerOptions(o, spec, numNodes, cfg.GlobalBatch, samples)
	o.Only, o.Nodes = autoplan.ModePipeline, nil
	eff := o.NumSoCs
	if eff == 0 {
		eff = o.Cluster.Config.NumSoCs // PlannerOptions sets NumSoCs unless a Cluster is given
	}
	if eff != numNodes {
		return nil, fmt.Errorf("runtime: Planner options target %d SoCs, mesh has %d nodes", eff, numNodes)
	}
	// One cluster for the run's pricer and every re-plan search, so the
	// run's harvest counts what they simulate.
	if o.Cluster == nil {
		o.Cluster = cluster.New(cluster.Config{NumSoCs: eff})
	}
	cfg.Kernels.TrackNet(o.Cluster)
	return &pipePolicy{popts: o, pricer: autoplan.PricerFor(o), plan: cfg.Plan}, nil
}

// pipePolicy is the pipeline round policy: the incumbent plan, the
// replan-vs-degrade decision at every membership change, and the single
// state source that seeds newcomers.
type pipePolicy struct {
	popts  autoplan.Options
	pricer *autoplan.Pricer
	plan   *autoplan.Plan // the incumbent
	// dirty re-opens the plan decision at the next release; trigger and
	// detectedAt describe the first membership change since the last one.
	dirty      bool
	trigger    string
	detectedAt time.Time
	// pending is the not-yet-committed decision, and pendingAt the
	// detection it answers; the round that commits its epoch appends it
	// to replans.
	pending   *ReplanEpisode
	pendingAt time.Time
	replans   []ReplanEpisode
}

// changed re-opens the plan decision when a placed node leaves or any
// node returns; an unplaced spare's death changes nothing.
func (p *pipePolicy) changed(x int, trigger string, left bool) {
	if _, _, placed := positionIn(stageGroups(p.plan), x); (placed || !left) && !p.dirty {
		p.dirty = true
		p.trigger = trigger
		p.detectedAt = time.Now()
	}
}

// commit stamps a pending replan decision with its executed epoch
// seconds, records it, and publishes it live: the episode as a
// wall-clock "replan" span from detection to resume, its
// detect-to-resume latency, and the plan's predicted and executed epoch
// seconds with their drift (0 while prediction and execution share
// one formula).
func (p *pipePolicy) commit(m *roundManager, r *round) {
	if p.pending == nil {
		return
	}
	ep := p.pending
	ep.ExecutedEpochSeconds = p.pricer.EpochSeconds(r.plan, p.popts.Samples)
	p.replans = append(p.replans, *ep)
	p.pending = nil
	m.reg.AddSpan(metrics.Span{
		Name: "replan", Cat: "recovery", Clock: metrics.ClockWall,
		Start: m.reg.WallSeconds(p.pendingAt), Dur: ep.DetectToResumeSeconds,
		Args: map[string]float64{"epoch": float64(ep.Epoch)},
	})
	m.reg.Histogram("recovery.detect_to_resume.seconds", metrics.DefaultSecondsBuckets).Observe(ep.DetectToResumeSeconds)
	core.PublishPlanDrift(m.reg, ep.PredictedEpochSeconds, ep.ExecutedEpochSeconds)
}

// build runs the replan-vs-degrade decision if membership changed,
// places the round on the resulting plan, and assigns the state
// transfer: placed nodes without boundary state are newcomers.
func (p *pipePolicy) build(m *roundManager, r *round) error {
	if p.dirty {
		chosen, decision, err := p.decide(m, r.epoch)
		if err != nil {
			return err
		}
		if samePipelinePlacement(chosen, p.plan) {
			// Nothing actually moves (e.g. a returner the incumbent plan
			// has no use for): keep the incumbent plan object so workers
			// don't reconfigure, and record no episode.
			chosen = p.plan
		} else {
			p.pending = &ReplanEpisode{
				Epoch:                 r.epoch,
				Trigger:               p.trigger,
				Decision:              decision,
				OldPlan:               p.plan.String(),
				NewPlan:               chosen.String(),
				PredictedEpochSeconds: chosen.EpochSeconds,
				DetectToResumeSeconds: time.Since(p.detectedAt).Seconds(),
			}
			p.pendingAt = p.detectedAt
			m.reg.Counter("recovery.replans").Inc()
			m.reg.Emit(metrics.Event{Kind: metrics.KindReplan, Epoch: r.epoch,
				Detail: fmt.Sprintf("%s %s: %s -> %s", p.trigger, decision, p.plan, chosen)})
		}
		p.plan = chosen
		// A returner not yet due sat this decision out; keep it open so
		// the round of its epoch can place it.
		p.dirty = slices.ContainsFunc(m.workers, func(x int) bool { return !m.dead[x] && !m.ready(x, r.epoch) })
	}
	r.plan = p.plan
	r.groups = stageGroups(p.plan)
	// The state source is the lowest stateful survivor, preferring one
	// already placed so no extra node has to wake up just to serve.
	source := -1
	for _, x := range m.workers {
		if m.stateful[x] && !m.dead[x] {
			if _, _, placed := positionIn(r.groups, x); placed {
				source = x
				break
			}
			if source < 0 {
				source = x
			}
		}
	}
	for _, members := range r.groups {
		for _, x := range members {
			if m.stateful[x] {
				continue
			}
			if source < 0 {
				return fmt.Errorf("runtime: training state lost at epoch %d: no stateful survivor to seed the new placement", r.epoch)
			}
			r.transfer[x] = source
		}
	}
	return nil
}

// decide prices the two recovery candidates and picks the cheaper:
// degrade-in-place (the current plan minus every group that lost a
// stage) versus a fresh plan.Search restricted to the surviving fleet.
// Ties keep the degrade — same placement shape means surviving stages
// keep their optimizer momentum.
func (p *pipePolicy) decide(m *roundManager, epoch int) (*autoplan.Plan, string, error) {
	var usable []int
	for _, x := range m.workers {
		if m.ready(x, epoch) {
			usable = append(usable, x)
		}
	}
	var degrade *autoplan.Plan
	var keep [][]int
	for _, members := range p.plan.Placement {
		intact := true
		for _, x := range members[:p.plan.Depth()] {
			intact = intact && m.ready(x, epoch)
		}
		if intact {
			keep = append(keep, members)
		}
	}
	if len(keep) > 0 {
		dp := *p.plan
		dp.Placement = keep
		dp.EpochSeconds = p.pricer.EpochSeconds(&dp, p.popts.Samples)
		degrade = &dp
	}
	o := p.popts
	o.Nodes = usable
	replan, _ := autoplan.Search(o) // nil when no pipeline fits the survivors
	switch {
	case degrade == nil && replan == nil:
		return nil, "", fmt.Errorf("runtime: no viable pipeline plan at epoch %d on %d surviving SoCs", epoch, len(usable))
	case replan == nil:
		return degrade, "degrade", nil
	case degrade == nil:
		return replan, "replan", nil
	case replan.EpochSeconds < degrade.EpochSeconds:
		return replan, "replan", nil
	default:
		return degrade, "degrade", nil
	}
}

// samePipelinePlacement reports whether two plans place the same nodes
// at the same positions with the same cuts and schedule — i.e. adopting
// b over a changes nothing at runtime.
func samePipelinePlacement(a, b *autoplan.Plan) bool {
	if a.MicroBatches != b.MicroBatches || len(a.Placement) != len(b.Placement) || len(a.Stages) != len(b.Stages) {
		return false
	}
	for j := range a.Stages {
		if a.Stages[j].From != b.Stages[j].From || a.Stages[j].To != b.Stages[j].To {
			return false
		}
	}
	for g := range a.Placement {
		if len(a.Placement[g]) != len(b.Placement[g]) {
			return false
		}
		for i := range a.Placement[g] {
			if a.Placement[g][i] != b.Placement[g][i] {
				return false
			}
		}
	}
	return true
}

// enter implements roundTrainer: a placed node rolls back on a retry,
// then adopts the round's plan — in place when its stage cut is intact
// (retries, degrade-in-place), so velocities carry, and through a
// fresh configure otherwise.
func (w *pipeWorker) enter(e *elasticState, r *round, receives bool) (bool, []*tensor.Tensor, error) {
	g, i, placed := positionIn(r.groups, w.node.ID())
	if !placed {
		return false, nil, nil // the unplaced state source: a warm spare
	}
	keepStage := w.sameStage(r.plan, i)
	if r.restore && !receives {
		vel := w.vel
		if !keepStage {
			vel = nil
		}
		if err := e.restore(r.epoch, vel); err != nil {
			return false, nil, err
		}
	}
	if keepStage {
		w.p, w.g = r.plan, g
	} else {
		w.configure(r.plan, g, i)
	}
	return true, w.vel, nil
}
