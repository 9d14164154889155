package exp

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/runtime"
	"socflow/internal/transport"
)

// ExpReplan measures the elastic pipeline track's planner-driven
// recovery. Three campaigns of the same pipeline plan run side by
// side: fault-free (asserted bit-identical to the plain, non-elastic
// pipeline — the recovery machinery must be free when nothing fails),
// a permanent stage crash at mid-campaign (heartbeat detection →
// re-plan onto the survivors → leader-served state migration →
// resume), and a tidal shrink delivered through the resize path. The
// table is one row per scenario; the notes carry each replan episode's
// old→new plan strings, the detect→resume overhead, and the
// predicted-vs-executed epoch-seconds assertion — every adopted plan's
// Plan.EpochSeconds must equal the epoch seconds the pricer charges
// for what actually ran, exactly.
func ExpReplan(o Options) (*Table, error) {
	o = o.withDefaults()
	const socs = 6
	epochs := o.Epochs
	if epochs > 6 {
		epochs = 6
	}
	if epochs < 4 {
		epochs = 4
	}

	prof, err := dataset.GetProfile("celeba")
	if err != nil {
		return nil, err
	}
	pool := prof.Generate(dataset.GenOptions{Samples: o.TrainSamples + o.ValSamples, Seed: o.Seed})
	train, val := pool.Split(float64(o.TrainSamples) / float64(pool.Len()))
	spec := nn.MustSpec("lenet5")

	popts := autoplan.Options{
		Spec:        spec,
		NumSoCs:     socs,
		MaxGroups:   2,
		GlobalBatch: 16,
		Samples:     train.Len(),
		Only:        autoplan.ModePipeline,
	}
	p, err := autoplan.Search(popts)
	if err != nil {
		return nil, fmt.Errorf("exp replan: planner: %w", err)
	}

	js := core.JobSpec{Epochs: epochs, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: o.Seed}
	rc := &runtime.RecoveryConfig{}
	do := func(cfg runtime.DistConfig) (*runtime.DistResult, error) {
		cfg.JobSpec = js
		cfg.Plan = p
		cfg.Planner = &popts
		cfg.Metrics = o.Metrics
		cfg.Kernels = o.Kernels
		return runtime.RunDistributed(context.Background(), transport.NewChanMesh(socs), spec, train, val, cfg)
	}

	plain, err := do(runtime.DistConfig{})
	if err != nil {
		return nil, fmt.Errorf("exp replan plain baseline: %w", err)
	}
	clean, err := do(runtime.DistConfig{Recovery: rc})
	if err != nil {
		return nil, fmt.Errorf("exp replan fault-free elastic: %w", err)
	}

	// Acceptance 1: the fault-free elastic run is bit-identical to the
	// plain pipeline — same accuracies, same final weights and state.
	if !reflect.DeepEqual(plain.EpochAccuracies, clean.EpochAccuracies) {
		return nil, fmt.Errorf("exp replan: fault-free elastic accuracies diverged from plain: %v vs %v",
			clean.EpochAccuracies, plain.EpochAccuracies)
	}
	pw, cw := plain.Final.Weights(), clean.Final.Weights()
	for ti := range pw {
		if !reflect.DeepEqual(pw[ti].Data, cw[ti].Data) {
			return nil, fmt.Errorf("exp replan: fault-free elastic weight tensor %d diverged from plain", ti)
		}
	}

	// A permanent crash of a placed stage SoC at mid-campaign.
	victim := p.Placement[p.Groups()-1][0]
	crashEpoch := epochs / 2
	crashed, err := do(runtime.DistConfig{
		Recovery: rc,
		Faults: &transport.FaultPlan{Events: []transport.FaultEvent{
			{Kind: transport.FaultCrash, Node: victim, Epoch: crashEpoch, Iter: 1},
		}},
	})
	if err != nil {
		return nil, fmt.Errorf("exp replan crash campaign: %w", err)
	}

	// A tidal shrink: two SoCs reclaimed at the same boundary.
	resizes := make(chan int, 1)
	shrunk, err := do(runtime.DistConfig{
		Recovery: rc,
		Resizes:  resizes,
		EpochEnd: func(epoch int, _ float64) {
			if epoch == crashEpoch-1 {
				resizes <- socs - 2
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("exp replan tidal shrink campaign: %w", err)
	}

	// Acceptance 2: every adopted plan predicted its executed epoch
	// seconds exactly — the planner's pricer is the runtime's clock.
	episodes := append(append([]runtime.ReplanEpisode(nil), crashed.Replans...), shrunk.Replans...)
	for _, ep := range episodes {
		if ep.PredictedEpochSeconds != ep.ExecutedEpochSeconds {
			return nil, fmt.Errorf("exp replan: %s episode predicted %.9fs but executed %.9fs (%s -> %s)",
				ep.Trigger, ep.PredictedEpochSeconds, ep.ExecutedEpochSeconds, ep.OldPlan, ep.NewPlan)
		}
	}
	if len(crashed.Replans) == 0 {
		return nil, fmt.Errorf("exp replan: crash campaign recorded no replan episode")
	}
	if len(shrunk.Replans) == 0 {
		return nil, fmt.Errorf("exp replan: tidal shrink recorded no replan episode")
	}

	final := func(r *runtime.DistResult) float64 { return r.EpochAccuracies[len(r.EpochAccuracies)-1] }
	detectResume := func(r *runtime.DistResult) float64 {
		s := 0.0
		for _, ep := range r.Replans {
			s += ep.DetectToResumeSeconds
		}
		return s
	}
	row := func(name string, r *runtime.DistResult) []any {
		det, ret, rep := 0, 0, 0
		if s := r.Recovery; s != nil {
			det, ret = s.Detections, s.Retries
		}
		rep = len(r.Replans)
		return []any{name, 100 * final(r), 100 * (final(r) - final(clean)), det, ret, rep, detectResume(r)}
	}

	t := &Table{
		Title:  fmt.Sprintf("Elastic re-planning — LeNet5/CelebA pipeline on %d SoCs, plan %s", socs, p.String()),
		Header: []string{"scenario", "final_acc", "delta_pts", "detections", "retries", "replans", "detect_resume_s"},
	}
	t.AddRow(row("fault-free", clean)...)
	t.AddRow(row("stage crash", crashed)...)
	t.AddRow(row("tidal shrink", shrunk)...)

	t.Notes = []string{
		"fault-free elastic run asserted bit-identical to the plain pipeline (accuracies, final weights)",
		fmt.Sprintf("crash campaign: SoC %d (stage 0 of group %d) killed permanently at epoch %d iter 1", victim, p.Groups()-1, crashEpoch+1),
		fmt.Sprintf("tidal shrink: fleet clamped %d -> %d at the epoch-%d boundary", socs, socs-2, crashEpoch+1),
		"every adopted plan asserted Plan.EpochSeconds == executed epoch seconds exactly (shared pricer)",
	}
	for _, ep := range episodes {
		t.Notes = append(t.Notes, fmt.Sprintf("episode (epoch %d, %s): %s, %s -> %s, detect->resume %.3fs",
			ep.Epoch+1, ep.Trigger, ep.Decision, ep.OldPlan, ep.NewPlan, ep.DetectToResumeSeconds))
	}
	if d := 100 * math.Abs(final(crashed)-final(clean)); d > 2 {
		t.Notes = append(t.Notes, fmt.Sprintf("WARNING: crash-campaign accuracy delta %.2f pts exceeds the 2-point acceptance bound", d))
	}
	return t, nil
}
