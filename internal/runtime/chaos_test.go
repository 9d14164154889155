package runtime

import (
	"context"
	"strings"
	"testing"
	"time"

	"socflow/internal/core"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// chaosSchedule samples one randomized fault script from a seeded RNG:
// one or two crashes (each possibly a bounded preemption window with a
// matching rejoin), an optional transient straggler, and an occasional
// link drop. Crash-window ends always come with a scheduled rejoin, so
// every schedule is one the elastic track claims to survive — except
// link drops, which are deliberately unrecoverable and must tear down
// cleanly instead.
func chaosSchedule(r *tensor.RNG, socs, epochs int) (*transport.FaultPlan, []Rejoin) {
	plan := &transport.FaultPlan{}
	var rejoins []Rejoin
	perm := r.Perm(socs)
	nCrash := 1 + r.Intn(2)
	for i := 0; i < nCrash; i++ {
		ev := transport.FaultEvent{
			Kind:  transport.FaultCrash,
			Node:  perm[i],
			Epoch: 1 + r.Intn(epochs-1),
			Iter:  r.Intn(4),
		}
		if ev.Epoch+1 < epochs && r.Float64() < 0.5 {
			ret := ev.Epoch + 1 + r.Intn(epochs-ev.Epoch-1)
			ev.UntilEpoch, ev.UntilIter = ret, 0
			rejoins = append(rejoins, Rejoin{Node: ev.Node, Epoch: ret})
		}
		plan.Events = append(plan.Events, ev)
	}
	if r.Float64() < 0.5 {
		plan.Events = append(plan.Events, transport.FaultEvent{
			Kind:  transport.FaultStraggle,
			Node:  perm[nCrash],
			Epoch: r.Intn(epochs),
			Iter:  r.Intn(4),
			Delay: 5 * time.Millisecond,
		})
	}
	if r.Float64() < 0.25 {
		plan.Events = append(plan.Events, transport.FaultEvent{
			Kind:  transport.FaultLinkDrop,
			Node:  perm[nCrash],
			Peer:  perm[nCrash+1],
			Epoch: 1 + r.Intn(epochs-1),
			Iter:  r.Intn(4),
		})
	}
	return plan, rejoins
}

// TestChaosElasticSchedules replays a fixed set of seeded random fault
// schedules against the elastic track and asserts the only two legal
// outcomes: the run converges (all epochs trained), or it tears down
// cleanly within the deadline with an error that names the failing
// workers. Hangs, panics, and anonymous errors are the bugs this suite
// exists to catch; run it under -race (make chaos).
func TestChaosElasticSchedules(t *testing.T) {
	const socs, epochs = 6, 4
	spec, train, val := elasticFixture(t, 240)
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13} {
		r := tensor.NewRNG(seed * 997)
		plan, rejoins := chaosSchedule(r, socs, epochs)
		rc := fastRecovery()
		rc.Rejoins = rejoins
		cfg := DistConfig{
			JobSpec:  core.JobSpec{Epochs: epochs, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
			Groups:   [][]int{{0, 1, 2}, {3, 4, 5}},
			Faults:   plan,
			Recovery: rc,
		}
		type outcome struct {
			res *DistResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := RunDistributed(context.Background(), transport.NewChanMesh(socs), spec, train, val, cfg)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err == nil {
				if len(o.res.EpochAccuracies) != epochs {
					t.Fatalf("seed %d: clean run trained %d/%d epochs (plan %+v)",
						seed, len(o.res.EpochAccuracies), epochs, plan.Events)
				}
			} else if !strings.Contains(o.err.Error(), "worker ") {
				t.Fatalf("seed %d: teardown error does not name workers: %v (plan %+v)",
					seed, o.err, plan.Events)
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("seed %d: elastic run hung (plan %+v, rejoins %+v)", seed, plan.Events, rejoins)
		}
	}
}

// TestChaosPipelineSchedules replays seeded random fault schedules
// against the elastic pipeline track with the re-planner engaged. The
// same two outcomes are legal: the run converges across every epoch
// (re-planning or degrading around the faults), or it tears down
// cleanly within the deadline with stage-worker-named errors.
func TestChaosPipelineSchedules(t *testing.T) {
	const socs, epochs = 6, 4
	spec, train, val := elasticFixture(t, 240)
	p, popts := elasticPipePlan(t, socs, 2, 16, train.Len())
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13} {
		r := tensor.NewRNG(seed * 1009)
		plan, rejoins := chaosSchedule(r, socs, epochs)
		rc := fastRecovery()
		rc.Rejoins = rejoins
		cfg := PipelineConfig{
			DistConfig: DistConfig{
				JobSpec:  core.JobSpec{Epochs: epochs, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
				Faults:   plan,
				Recovery: rc,
			},
			Plan:    p,
			Planner: popts,
		}
		type outcome struct {
			res *DistResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := RunPipeline(context.Background(), transport.NewChanMesh(socs), spec, train, val, cfg)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err == nil {
				if len(o.res.EpochAccuracies) != epochs {
					t.Fatalf("seed %d: clean run trained %d/%d epochs (plan %+v)",
						seed, len(o.res.EpochAccuracies), epochs, plan.Events)
				}
			} else if !strings.Contains(o.err.Error(), "worker ") {
				t.Fatalf("seed %d: teardown error does not name workers: %v (plan %+v)",
					seed, o.err, plan.Events)
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("seed %d: elastic pipeline run hung (plan %+v, rejoins %+v)", seed, plan.Events, rejoins)
		}
	}
}
