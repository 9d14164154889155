package exp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/plan"
	"socflow/internal/runtime"
	"socflow/internal/transport"
)

// ExpElastic measures the elastic recovery subsystem under the tidal
// trace: a mid-training preemption takes one SoC away (detected by
// heartbeat timeout, not by consulting the fault plan), the survivors
// retry the broken epoch from its snapshot and continue degraded, and
// at the trace's preemption-end epoch the node rejoins with a
// leader-served state transfer. The table is the degrade→rejoin curve
// — per-epoch membership, accuracy, and wall time against a fault-free
// elastic baseline — and the notes carry the acceptance metrics: final
// accuracy within 2 points of fault-free, post-rejoin epoch time back
// within 10% of the full-membership baseline.
func ExpElastic(o Options) (*Table, error) {
	o = o.withDefaults()
	const socs, groups = 6, 2
	epochs := min(max(o.Epochs, 5), 8)
	job, err := newMeshJob(o, socs, groups, epochs)
	if err != nil {
		return nil, err
	}

	// Derive the preemption episode from the tidal trace: an evening
	// session walks out of the afternoon shoulder into the nightly
	// trough, so an early-epoch reclaim gets its SoC handed back before
	// the session ends. Fall back to a fixed mid-training window when
	// the sampled schedule has no usable episode.
	window := cluster.PreemptionEvent{SoC: socs - 1, Epoch: epochs / 3, Return: epochs - 2}
	for _, ev := range cluster.DefaultTidalTrace().PreemptionEvents(socs, epochs, 17, 1, o.Seed+17) {
		if ev.Epoch >= 1 && ev.Return > ev.Epoch && ev.Return <= epochs-2 {
			window = ev
			break
		}
	}

	clean, err := job.run(nil, nil)
	if err != nil {
		return nil, fmt.Errorf("exp elastic baseline: %w", err)
	}
	plan := &transport.FaultPlan{Events: []transport.FaultEvent{{
		Kind: transport.FaultCrash, Node: window.SoC,
		Epoch: window.Epoch, Iter: 1, // mid-epoch: survivors are already in the ring
		UntilEpoch: window.Return,
	}}}
	elastic, err := job.run(plan, []runtime.Rejoin{{Node: window.SoC, Epoch: window.Return}})
	if err != nil {
		return nil, fmt.Errorf("exp elastic preempt+rejoin: %w", err)
	}

	t := &Table{
		Title:  fmt.Sprintf("Elastic recovery — LeNet5/FMNIST on %d SoCs (%d groups), tidal preemption window", socs, groups),
		Header: []string{"epoch", "members", "acc_clean", "acc_elastic", "wall_clean_s", "wall_elastic_s"},
	}
	for e := 0; e < epochs; e++ {
		members := socs
		if e >= window.Epoch && e < window.Return {
			members--
		}
		t.AddRow(e+1, members,
			100*clean.res.EpochAccuracies[e], 100*elastic.res.EpochAccuracies[e],
			clean.wall[e], elastic.wall[e])
	}

	s := elastic.res.Recovery
	finalClean := clean.res.EpochAccuracies[epochs-1]
	finalElastic := elastic.res.EpochAccuracies[epochs-1]
	deltaPts := 100 * (finalElastic - finalClean)

	// Post-rejoin epoch time vs the full-membership baseline over the
	// same epochs: the re-expanded batch split must price like the
	// fault-free run again.
	var cleanPost, elasticPost float64
	post := 0
	for e := window.Return; e < epochs; e++ {
		cleanPost += clean.wall[e]
		elasticPost += elastic.wall[e]
		post++
	}
	ratio := 1.0
	if post > 0 && cleanPost > 0 {
		ratio = elasticPost / cleanPost
	}

	t.Notes = []string{
		fmt.Sprintf("tidal episode: SoC %d preempted mid-epoch %d, returned at epoch %d (trace-derived window)",
			window.SoC, window.Epoch+1, window.Return+1),
		"failure is detected by heartbeat timeout; the broken epoch retries from its snapshot; rejoin ships weights+optimizer over the leader",
		fmt.Sprintf("recovery: %d detections, %d rejoins, %d epoch retries, %d state-transfer bytes, membership epoch %d",
			s.Detections, s.Rejoins, s.Retries, s.StateTransferBytes, s.MembershipEpoch),
		fmt.Sprintf("final accuracy delta vs fault-free: %+.2f pts (acceptance: within 2)", deltaPts),
		fmt.Sprintf("post-rejoin mean epoch wall: %.0f%% of full-membership baseline (acceptance: within 10%%)", 100*ratio),
	}
	if math.Abs(deltaPts) > 2 {
		t.Notes = append(t.Notes, "WARNING: accuracy delta exceeds the 2-point acceptance bound")
	}
	return t, nil
}

// meshJob is the job ExpFaults and ExpElastic replay fault schedules
// against: LeNet-5/FMNIST data parallelism over an in-process mesh of
// socs SoCs in integrity-greedy groups, on the elastic track, so every
// crash is detected by heartbeat and survived by epoch retry.
type meshJob struct {
	socs       int
	spec       *nn.Spec
	train, val *dataset.Dataset
	cfg        runtime.DistConfig
}

func newMeshJob(o Options, socs, groups, epochs int) (*meshJob, error) {
	prof, err := dataset.GetProfile("fmnist")
	if err != nil {
		return nil, err
	}
	pool := prof.Generate(dataset.GenOptions{Samples: o.TrainSamples + o.ValSamples, Seed: o.Seed})
	train, val := pool.Split(float64(o.TrainSamples) / float64(pool.Len()))
	return &meshJob{
		socs:  socs,
		spec:  nn.MustSpec("lenet5"),
		train: train, val: val,
		cfg: runtime.DistConfig{
			JobSpec: core.JobSpec{Epochs: epochs, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: o.Seed},
			Plan: &plan.Plan{
				NumSoCs:   socs,
				Mode:      plan.ModeData,
				Placement: plan.IntegrityGreedyMap(plan.AllNodes(socs), groups, cluster.SoCsPerPCBDefault).Groups,
				Batch:     16,
			},
			Metrics: o.Metrics,
		},
	}, nil
}

// meshRun is one run's result and the wall seconds of each epoch.
type meshRun struct {
	res  *runtime.DistResult
	wall []float64
}

// run trains the job once under faults, re-admitting each rejoin at
// its epoch boundary.
func (j *meshJob) run(faults *transport.FaultPlan, rejoins []runtime.Rejoin) (*meshRun, error) {
	r := &meshRun{wall: make([]float64, j.cfg.Epochs)}
	var mu sync.Mutex // leadership, and so the EpochEnd caller, migrates
	prev := time.Now()
	cfg := j.cfg
	cfg.Faults = faults
	cfg.Recovery = &runtime.RecoveryConfig{Rejoins: rejoins}
	cfg.EpochEnd = func(epoch int, _ float64) {
		mu.Lock()
		now := time.Now()
		r.wall[epoch] = now.Sub(prev).Seconds()
		prev = now
		mu.Unlock()
	}
	res, err := runtime.RunDistributed(context.Background(), transport.NewChanMesh(j.socs), j.spec, j.train, j.val, cfg)
	if err != nil {
		return nil, err
	}
	r.res = res
	return r, nil
}
