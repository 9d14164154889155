package exp

import (
	"fmt"

	"socflow/internal/cluster"
	"socflow/internal/runtime"
	"socflow/internal/transport"
)

// ExpFaults measures the distributed runtime's failure-domain story:
// accuracy and completion under 0/1/2 injected SoC crashes, plus a
// tidal row whose schedule comes from the co-location trace — SoCs
// reclaimed by user traffic mid-session and handed back when it ebbs.
// Every crash is survived the one way the mesh survives crashes: peers
// detect it by missed heartbeats, the broken epoch retries from its
// snapshot on the survivors (who re-split the batch and re-normalize
// the gradient average), and a returning SoC rejoins by state transfer.
// The paper motivates this (§2.2: training runs on borrowed,
// preemptible chips) but only evaluates fault-free runs.
func ExpFaults(o Options) (*Table, error) {
	o = o.withDefaults()
	// One goroutine per SoC plus its links: keep the mesh laptop-sized.
	const socs, groups = 8, 2
	epochs := min(o.Epochs, 8)
	job, err := newMeshJob(o, socs, groups, epochs)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Faults — LeNet5/FMNIST on %d SoCs (%d groups), heartbeat-detected recovery", socs, groups),
		Header: []string{"plan", "crashes", "survivors", "detections", "rejoins", "best_acc", "final_acc", "delta_pts", "wall_s"},
		Notes: []string{
			"extension experiment: scripted SoC crashes against the real distributed runtime (transport.FaultPlan)",
			"no worker reads the plan to learn who is alive: detections counts the crashes the heartbeat detector saw",
			"delta_pts is best accuracy relative to the fault-free run; survivors re-split the batch, so the loss stays small",
			"tidal row: preemption windows sampled from the co-location trace (session drifting out of the nightly trough); returns rejoin",
		},
	}

	type row struct {
		label   string
		plan    *transport.FaultPlan
		rejoins []runtime.Rejoin
	}
	rows := []row{
		{"none", nil, nil},
		{"1 crash", transport.RandomCrashPlan(o.Seed+11, socs, epochs, 1), nil},
		{"2 crashes", transport.RandomCrashPlan(o.Seed+11, socs, epochs, 2), nil},
	}
	// Tidal schedule: a session starting at the trough's edge loses SoCs
	// as the morning traffic returns; each episode is a crash window, and
	// its end a scheduled rejoin.
	tidal := row{label: "tidal", plan: &transport.FaultPlan{}}
	for _, ev := range cluster.DefaultTidalTrace().PreemptionEvents(socs, epochs, 6.5, 0.5, o.Seed+13) {
		fe := transport.FaultEvent{Kind: transport.FaultCrash, Node: ev.SoC, Epoch: ev.Epoch}
		if ev.Return >= 0 {
			fe.UntilEpoch = ev.Return
			tidal.rejoins = append(tidal.rejoins, runtime.Rejoin{Node: ev.SoC, Epoch: ev.Return})
		}
		tidal.plan.Events = append(tidal.plan.Events, fe)
	}
	rows = append(rows, tidal)

	cleanBest := 0.0
	for _, r := range rows {
		run, err := job.run(r.plan, r.rejoins)
		if err != nil {
			return nil, fmt.Errorf("exp faults %q: %w", r.label, err)
		}
		best, wall := 0.0, 0.0
		for e, a := range run.res.EpochAccuracies {
			best = max(best, a)
			wall += run.wall[e]
		}
		if r.plan == nil {
			cleanBest = best
		}
		survivors := 0
		for x := 0; x < socs; x++ {
			if !r.plan.CrashedAt(x, epochs-1, transport.IterEpochEnd) {
				survivors++
			}
		}
		s := run.res.Recovery
		t.AddRow(r.label, r.plan.Crashes(), survivors, s.Detections, s.Rejoins,
			100*best, 100*run.res.EpochAccuracies[epochs-1], 100*(best-cleanBest), wall)
	}
	return t, nil
}
