package socflow

import (
	"context"
	"slices"
	"sync"
	"testing"

	"socflow/internal/metrics"
)

// gate is an io.Writer for WithTrace that signals on its first write
// and blocks every write until released. Because WithTrace writes
// synchronously on the job's goroutine between epochs, a gate parks a
// running job at an epoch boundary under test control — no sleeps.
type gate struct {
	hit     chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{hit: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.hit) })
	<-g.release
	return len(p), nil
}

func ctlCfg(socs, epochs int) Config {
	return Config{
		JobSpec: JobSpec{
			Model:        "lenet5",
			Dataset:      "fmnist",
			GlobalBatch:  16,
			Epochs:       epochs,
			TrainSamples: 160,
			ValSamples:   40,
			Seed:         3,
		},
		NumSoCs: socs,
		Groups:  2,
	}
}

// TestControlPlaneAcceptance is the PR's end-to-end scenario: one
// server schedules three concurrent jobs from two tenants with a
// quota held, then a high-priority submission preempts a low-priority
// job, which parks at an epoch boundary, and resumes from its
// checkpoint to completion.
func TestControlPlaneAcceptance(t *testing.T) {
	srv := NewServer(ServerConfig{
		TotalSoCs: 32,
		Quotas:    map[string]Quota{"team-a": {MaxRunningJobs: 2}},
	})
	defer srv.Close()
	cl := srv.Client()
	ctx := context.Background()

	// Phase 1 — concurrency and quota. Three 4-SoC jobs from team-a
	// (quota: 2 running) and one from team-b.
	gates := map[string]*gate{}
	submit := func(tenant, key string, socs, epochs, prio int) *JobHandle {
		t.Helper()
		g := newGate()
		gates[key] = g
		h, err := cl.Submit(ctx, ctlCfg(socs, epochs),
			WithTenant(tenant), WithPriority(prio), WithTrace(g))
		if err != nil {
			t.Fatalf("submit %s: %v", key, err)
		}
		return h
	}
	a1 := submit("team-a", "a1", 4, 3, 0)
	a2 := submit("team-a", "a2", 4, 3, 0)
	a3 := submit("team-a", "a3", 4, 3, 0)
	b1 := submit("team-b", "b1", 4, 3, 0)

	// Scheduling is synchronous in Submit: a3 must be quota-queued even
	// though 20 of 32 SoCs are free.
	if st, err := a3.Status(ctx); err != nil || st.State != JobQueued {
		t.Fatalf("a3 should be quota-queued: %+v, %v", st, err)
	}
	// Wait until a1, a2, b1 are each blocked at their first epoch
	// boundary — three jobs from two tenants provably running at once.
	<-gates["a1"].hit
	<-gates["a2"].hit
	<-gates["b1"].hit
	running := 0
	for _, st := range srv.List() {
		if st.State == JobRunning {
			running++
		}
	}
	if running != 3 {
		t.Fatalf("want 3 concurrent running jobs, have %d: %+v", running, srv.List())
	}

	for _, k := range []string{"a1", "a2", "a3", "b1"} {
		close(gates[k].release)
	}
	for key, h := range map[string]*JobHandle{"a1": a1, "a2": a2, "a3": a3, "b1": b1} {
		rep, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if len(rep.EpochAccuracies) != 3 {
			t.Fatalf("%s: epochs %d, want 3", key, len(rep.EpochAccuracies))
		}
	}
	if peak := srv.PeakRunning("team-a"); peak != 2 {
		t.Fatalf("team-a quota not held: peak running %d, want 2", peak)
	}

	// Phase 2 — preemption and checkpoint-resume. A 24-SoC
	// low-priority job occupies the cluster; a 16-SoC priority-9
	// submission forces it to park at its next epoch boundary.
	lo := submit("team-b", "lo", 24, 5, 0)
	loEvents := lo.Events()
	<-gates["lo"].hit // lo finished epoch 1 and is blocked

	hi, err := cl.Submit(ctx, ctlCfg(16, 3), WithTenant("team-a"), WithPriority(9))
	if err != nil {
		t.Fatal(err)
	}
	hiEvents := hi.Events()

	if st, _ := lo.Status(ctx); st.State != JobParking {
		t.Fatalf("lo should be parking after the priority-9 submit, is %s", st.State)
	}
	close(gates["lo"].release) // lo reaches the boundary, checkpoints, parks

	if _, err := hi.Wait(ctx); err != nil {
		t.Fatalf("hi: %v", err)
	}
	epochEvents := 0
	for e := range hiEvents {
		if e.Kind == metrics.KindEpoch {
			epochEvents++
		}
	}
	if epochEvents != 3 {
		t.Fatalf("hi event stream: %d epoch events, want 3", epochEvents)
	}

	// With hi done the scheduler resumes lo from its park checkpoint.
	rep, err := lo.Wait(ctx)
	if err != nil {
		t.Fatalf("lo: %v", err)
	}
	if len(rep.EpochAccuracies) != 5 {
		t.Fatalf("resumed job must report all 5 epochs, got %d", len(rep.EpochAccuracies))
	}
	st, err := lo.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Parks != 1 || st.Resumes != 1 {
		t.Fatalf("lo lifecycle wrong: %+v (want done with 1 park, 1 resume)", st)
	}
	if st.EpochsDone != 5 {
		t.Fatalf("lo epochs done = %d, want 5", st.EpochsDone)
	}
	// Park and resume do not repeat the stream: one event per epoch.
	var loEpochs []int
	for e := range loEvents {
		if e.Kind == metrics.KindEpoch {
			loEpochs = append(loEpochs, e.Epoch)
		}
	}
	if !slices.Equal(loEpochs, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("parked job's event stream carried epochs %v, want each of 0..4 once", loEpochs)
	}
}

// A parked-and-resumed job keeps data-order continuity: epochs trained
// before the park keep their recorded accuracies, and the resumed
// segment starts from the checkpointed weights rather than from
// scratch.
func TestControlPlaneResumeContinuity(t *testing.T) {
	srv := NewServer(ServerConfig{TotalSoCs: 8})
	defer srv.Close()
	cl := srv.Client()
	ctx := context.Background()

	// Baseline: the same config uninterrupted.
	base, err := Run(ctx, ctlCfg(8, 4))
	if err != nil {
		t.Fatal(err)
	}

	g := newGate()
	lo, err := cl.Submit(ctx, ctlCfg(8, 4), WithTrace(g))
	if err != nil {
		t.Fatal(err)
	}
	<-g.hit
	hi, err := cl.Submit(ctx, ctlCfg(8, 2), WithPriority(5))
	if err != nil {
		t.Fatal(err)
	}
	close(g.release)
	if _, err := hi.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := lo.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EpochAccuracies) != 4 {
		t.Fatalf("epochs: %d", len(rep.EpochAccuracies))
	}
	// The pre-park epochs are bit-identical to the uninterrupted run
	// (same weights, same data order); post-resume epochs continue from
	// the checkpoint, so accuracy should stay in a learned regime
	// rather than collapsing to scratch.
	if rep.EpochAccuracies[0] != base.EpochAccuracies[0] {
		t.Fatalf("pre-park epoch diverged: %v vs %v", rep.EpochAccuracies[0], base.EpochAccuracies[0])
	}
	st, _ := lo.Status(ctx)
	if st.Parks < 1 || st.Resumes < 1 {
		t.Fatalf("job was never parked/resumed: %+v", st)
	}
}
