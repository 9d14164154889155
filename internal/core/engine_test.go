package core

import (
	"context"

	"bytes"
	"io"
	"math"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

func tensorRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// testJob builds a small functional job standing in for
// VGG-11/CIFAR-10 at paper scale.
func testJob(t *testing.T, samples, epochs int) *Job {
	t.Helper()
	prof := dataset.MustProfile("cifar10")
	full := prof.Generate(dataset.GenOptions{Samples: samples + samples/4, Seed: 7})
	train, val := full.Split(float64(samples) / float64(full.Len()))
	return &Job{
		Spec:         nn.MustSpec("vgg11"),
		Train:        train,
		Val:          val,
		PaperSamples: 50000,
		GlobalBatch:  12, // micro functional batch: several steps per group-epoch
		PaperBatch:   64, // the paper's BS_g, used by the performance track
		LR:           0.02,
		Momentum:     0.9,
		Epochs:       epochs,
		Seed:         42,
	}
}

func clu32() *cluster.Cluster { return cluster.New(cluster.Config{NumSoCs: 32}) }

func TestSoCFlowRunImprovesAccuracy(t *testing.T) {
	job := testJob(t, 480, 8)
	s := &SoCFlow{NumGroups: 8}
	res, err := s.Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochAccuracies) != 8 {
		t.Fatalf("ran %d epochs", len(res.EpochAccuracies))
	}
	chance := 1.0 / float64(job.Train.Classes)
	if res.BestAccuracy < chance+0.25 {
		t.Fatalf("SoCFlow failed to learn: best=%v (chance %v)", res.BestAccuracy, chance)
	}
	if res.SimSeconds <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("missing performance results: %v s, %v J", res.SimSeconds, res.EnergyJ)
	}
	if res.Breakdown.Compute <= 0 || res.Breakdown.Sync <= 0 || res.Breakdown.Update <= 0 {
		t.Fatalf("breakdown incomplete: %+v", res.Breakdown)
	}
}

func TestSoCFlowValidation(t *testing.T) {
	job := testJob(t, 100, 1)
	if _, err := (&SoCFlow{}).Run(context.Background(), job, clu32()); err == nil {
		t.Fatal("NumGroups 0 must error")
	}
	if _, err := (&SoCFlow{NumGroups: 64}).Run(context.Background(), job, clu32()); err == nil {
		t.Fatal("more groups than SoCs must error")
	}
	bad := *job
	bad.GlobalBatch = 0
	if _, err := (&SoCFlow{NumGroups: 4}).Run(context.Background(), &bad, clu32()); err == nil {
		t.Fatal("invalid job must error")
	}
}

func TestSoCFlowFasterEpochsThanRing(t *testing.T) {
	// The headline claim at 32 SoCs: group-wise parallelism with
	// delayed aggregation beats fleet-wide per-batch ring sync on
	// simulated epoch time by an order of magnitude.
	job := testJob(t, 320, 2)
	sf, err := (&SoCFlow{NumGroups: 8, Mixed: MixedOff}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	ring := &SyncSGD{
		StrategyName: "RING",
		SyncTime: func(clu *cluster.Cluster, spec *nn.Spec) float64 {
			return collective.RingAllReduceTime(clu, AllSoCs(clu), float64(spec.GradBytes()))
		},
	}
	rr, err := ring.Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	if sf.MeanEpochSimSeconds()*5 > rr.MeanEpochSimSeconds() {
		t.Fatalf("SoCFlow epoch %v s should be >=5x faster than RING epoch %v s",
			sf.MeanEpochSimSeconds(), rr.MeanEpochSimSeconds())
	}
}

func TestSoCFlowMixedFasterThanFP32(t *testing.T) {
	job := testJob(t, 320, 2)
	mixed, err := (&SoCFlow{NumGroups: 8, Mixed: MixedAuto}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	fp32, err := (&SoCFlow{NumGroups: 8, Mixed: MixedOff}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	if mixed.SimSeconds >= fp32.SimSeconds {
		t.Fatalf("mixed precision (%v s) should beat CPU-only (%v s)", mixed.SimSeconds, fp32.SimSeconds)
	}
}

func TestSoCFlowAblationLadderMonotone(t *testing.T) {
	// Fig. 13: each technique must not slow the run down; the full
	// ladder must be clearly faster than the bare grouped variant.
	job := testJob(t, 320, 2)
	worst, err := (&SoCFlow{NumGroups: 8, Mixed: MixedOff, DisableMapping: true, DisablePlanning: true}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := (&SoCFlow{NumGroups: 8, Mixed: MixedOff, DisablePlanning: true}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	planned, err := (&SoCFlow{NumGroups: 8, Mixed: MixedOff}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	full, err := (&SoCFlow{NumGroups: 8, Mixed: MixedAuto}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	const slack = 1.02 // rounding in batch splits can wiggle slightly
	if mapped.SimSeconds > worst.SimSeconds*slack {
		t.Fatalf("+Mapping regressed: %v -> %v", worst.SimSeconds, mapped.SimSeconds)
	}
	if planned.SimSeconds > mapped.SimSeconds*slack {
		t.Fatalf("+Plan regressed: %v -> %v", mapped.SimSeconds, planned.SimSeconds)
	}
	if full.SimSeconds > planned.SimSeconds*slack {
		t.Fatalf("+Mixed regressed: %v -> %v", planned.SimSeconds, full.SimSeconds)
	}
	if full.SimSeconds*1.5 > worst.SimSeconds {
		t.Fatalf("full ladder (%v) should be well below bare grouping (%v)", full.SimSeconds, worst.SimSeconds)
	}
}

func TestSoCFlowTargetAccuracyEarlyStop(t *testing.T) {
	job := testJob(t, 480, 20)
	job.TargetAccuracy = 0.3
	res, err := (&SoCFlow{NumGroups: 4}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochsToTarget == 0 {
		t.Fatal("target accuracy never reached")
	}
	if len(res.EpochAccuracies) != res.EpochsToTarget {
		t.Fatalf("run did not stop at target: %d epochs, target at %d",
			len(res.EpochAccuracies), res.EpochsToTarget)
	}
	if res.SimSecondsToTarget <= 0 || res.SimSecondsToTarget > res.SimSeconds+1e-9 {
		t.Fatalf("time-to-target bookkeeping wrong: %v vs %v", res.SimSecondsToTarget, res.SimSeconds)
	}
}

func TestSoCFlowPreemption(t *testing.T) {
	job := testJob(t, 480, 8)
	plan := &PreemptionPlan{ByEpoch: map[int][]int{1: {0, 1}, 2: {3}}}
	res, err := (&SoCFlow{NumGroups: 4, Preempt: plan}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 3 {
		t.Fatalf("served %d preemptions, want 3", res.Preemptions)
	}
	chance := 1.0 / float64(job.Train.Classes)
	if res.BestAccuracy < chance+0.15 {
		t.Fatalf("training collapsed under preemption: %v", res.BestAccuracy)
	}
}

// The group fan-out runs over the active set, not over all groups: with
// Mixed auto (every group ends its own epoch with an α probe and an
// Eq. 5 merge), uneven shards and a preemption plan that sits one group
// out, the run is bit for bit the same at every fan-out width —
// accuracies, simulated time, energy, attribution, and the final
// weights and batch-norm state.
func TestParallelismInvarianceMixedPreempted(t *testing.T) {
	run := func(width int) *Result {
		job := testJob(t, 250, 3)          // 250 samples over 4 groups: shards of 62 and 63
		job.Spec = nn.MustSpec("resnet18") // batch norm: FinalState carries running statistics
		job.Width = width
		if job.Train.Len()%4 == 0 {
			t.Fatalf("setup: %d samples shard evenly over 4 groups", job.Train.Len())
		}
		s := &SoCFlow{NumGroups: 4, Mixed: MixedAuto,
			Preempt: &PreemptionPlan{ByEpoch: map[int][]int{1: {2}}}}
		res, err := s.Run(context.Background(), job, cluN(16))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	if seq.Preemptions != 1 || len(seq.FinalWeights) == 0 || len(seq.FinalState) == 0 {
		t.Fatalf("setup: %d preemptions, %d weights, %d state tensors",
			seq.Preemptions, len(seq.FinalWeights), len(seq.FinalState))
	}
	for _, width := range []int{2, 3, 8} {
		par := run(width)
		for e := range seq.EpochAccuracies {
			if seq.EpochAccuracies[e] != par.EpochAccuracies[e] || seq.EpochSimSeconds[e] != par.EpochSimSeconds[e] {
				t.Fatalf("width %d epoch %d: acc %v / sim %v, want %v / %v", width, e,
					par.EpochAccuracies[e], par.EpochSimSeconds[e], seq.EpochAccuracies[e], seq.EpochSimSeconds[e])
			}
		}
		if par.SimSeconds != seq.SimSeconds || par.EnergyJ != seq.EnergyJ || par.Breakdown != seq.Breakdown ||
			par.Preemptions != seq.Preemptions {
			t.Fatalf("width %d: sim %v energy %v breakdown %+v preemptions %d, want %v %v %+v %d", width,
				par.SimSeconds, par.EnergyJ, par.Breakdown, par.Preemptions,
				seq.SimSeconds, seq.EnergyJ, seq.Breakdown, seq.Preemptions)
		}
		if !sameTensors(seq.FinalWeights, par.FinalWeights) || !sameTensors(seq.FinalState, par.FinalState) {
			t.Fatalf("width %d: final weights or state differ in their bits", width)
		}
	}
}

func TestSyncSGDRunsAndLearns(t *testing.T) {
	job := testJob(t, 480, 8)
	ring := &SyncSGD{
		StrategyName: "RING",
		SyncTime: func(clu *cluster.Cluster, spec *nn.Spec) float64 {
			return collective.RingAllReduceTime(clu, AllSoCs(clu), float64(spec.GradBytes()))
		},
	}
	res, err := ring.Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "RING" {
		t.Fatalf("strategy name %q", res.Strategy)
	}
	chance := 1.0 / float64(job.Train.Classes)
	if res.BestAccuracy < chance+0.25 {
		t.Fatalf("RING failed to learn: %v", res.BestAccuracy)
	}
	if res.Breakdown.Sync <= res.Breakdown.Compute {
		t.Fatalf("at 32 SoCs RING must be sync-dominated: %+v", res.Breakdown)
	}
}

func TestSyncSGDWithCompressionLearns(t *testing.T) {
	job := testJob(t, 480, 8)
	hp := &SyncSGD{
		StrategyName: "HiPress",
		SyncTime: func(clu *cluster.Cluster, spec *nn.Spec) float64 {
			return collective.RingAllReduceTime(clu, AllSoCs(clu), 1e6)
		},
		Compressor: collective.NewTopKCompressor(0.05),
	}
	res, err := hp.Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / float64(job.Train.Classes)
	if res.BestAccuracy < chance+0.2 {
		t.Fatalf("compressed training failed to learn: %v", res.BestAccuracy)
	}
}

func TestFedSGDRunsAndIsSlowerToConverge(t *testing.T) {
	job := testJob(t, 480, 8)
	fed := &FedSGD{
		StrategyName: "FedAvg",
		AggTime: func(clu *cluster.Cluster, spec *nn.Spec) float64 {
			return collective.PSTime(clu, AllSoCs(clu), 0, float64(spec.GradBytes()))
		},
	}
	fr, err := fed.Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	sf, err := (&SoCFlow{NumGroups: 8}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	// Gradient staleness: FedAvg should trail SoCFlow's accuracy after
	// the same number of rounds/epochs.
	if fr.FinalAccuracy > sf.FinalAccuracy+0.02 {
		t.Fatalf("FedAvg (%v) unexpectedly beat SoCFlow (%v)", fr.FinalAccuracy, sf.FinalAccuracy)
	}
}

// The member-batch rule SoCFlow's timeline and the planner share
// (Pricer.MemberBatches): underclocking-aware rebalancing gives a
// throttled member a smaller slice, and the group's SSGD step beats
// the even split.
func TestGlobalSchedulerRebalance(t *testing.T) {
	clu := cluster.New(cluster.Config{NumSoCs: 8})
	spec := nn.MustSpec("vgg11")
	members := IntegrityGreedyMap(8, 2, 5).Groups[0]
	pr := autoplan.NewPricer(clu, spec)
	for _, b := range pr.MemberBatches(members, 64, true) {
		if b != 16 {
			t.Fatalf("unthrottled shares of 64 over 4 members = %d, want 16", b)
		}
	}
	// Throttle one member to half speed: its share must drop, and the
	// rebalanced step must beat the naive even split.
	clu.SetThrottle(members[0], 0.5)
	groupStep := func(rebalance bool) (first int, step float64) {
		batches := pr.MemberBatches(members, 64, rebalance)
		for i, b := range batches {
			step = math.Max(step, clu.StepTime(members[i], spec, b, cluster.CPU))
		}
		return batches[0], step
	}
	first, balanced := groupStep(true)
	if first >= 16 {
		t.Fatalf("throttled member kept %d of 64 samples", first)
	}
	if _, naive := groupStep(false); balanced >= naive {
		t.Fatalf("rebalancing (%v) should beat even split (%v) under throttling", balanced, naive)
	}
}

func TestPlanFromTrace(t *testing.T) {
	m := IntegrityGreedyMap(10, 2, 5)
	// All SoCs busy at hour 0, free at hour 1.
	sched := make([][]bool, 10)
	for i := range sched {
		sched[i] = make([]bool, 24)
		sched[i][0] = true
	}
	plan := PlanFromTrace(m, sched, 0, 2)
	if len(plan.ByEpoch[0]) != 2 {
		t.Fatalf("epoch 0 should preempt both groups: %v", plan.ByEpoch[0])
	}
	if len(plan.ByEpoch[1]) != 0 {
		t.Fatalf("epoch 1 should preempt nobody: %v", plan.ByEpoch[1])
	}
}

func TestCheckpointSerializationRoundTrip(t *testing.T) {
	root := tensorRNG(9)
	model := nn.MustSpec("resnet18").BuildMicro(root, 3, 8, 4)
	cp := TakeCheckpoint(7, model.Weights(), model.StateTensors())

	data := cp.Bytes()
	if len(data) == 0 {
		t.Fatal("empty serialization")
	}
	back, err := ReadCheckpoint(bytesReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 7 || len(back.Weights) != len(cp.Weights) || len(back.State) != len(cp.State) {
		t.Fatalf("framing lost: epoch=%d weights=%d state=%d", back.Epoch, len(back.Weights), len(back.State))
	}
	for i := range cp.Weights {
		for j := range cp.Weights[i].Data {
			if cp.Weights[i].Data[j] != back.Weights[i].Data[j] {
				t.Fatalf("weight %d/%d not bit-identical", i, j)
			}
		}
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytesReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := ReadCheckpoint(bytesReader(nil)); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestAutoGroupCount(t *testing.T) {
	job := testJob(t, 320, 1)
	n, err := AutoGroupCount(context.Background(), job, clu32(), 8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 8 {
		t.Fatalf("selected group count %d out of range", n)
	}
}

func TestUnderclockingRebalancing(t *testing.T) {
	// Throttle one SoC of one group to half speed. With §4.1's
	// rebalancing the group shifts batch share away from it; without,
	// the throttled SoC paces the whole group.
	job := testJob(t, 320, 1)
	mkClu := func() *cluster.Cluster {
		clu := clu32()
		clu.SetThrottle(2, 0.5)
		return clu
	}
	balanced, err := (&SoCFlow{NumGroups: 8, Mixed: MixedOff}).Run(context.Background(), job, mkClu())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := (&SoCFlow{NumGroups: 8, Mixed: MixedOff, DisableRebalance: true}).Run(context.Background(), job, mkClu())
	if err != nil {
		t.Fatal(err)
	}
	if balanced.SimSeconds >= naive.SimSeconds {
		t.Fatalf("rebalancing (%v s) should beat the naive even split (%v s) under throttling",
			balanced.SimSeconds, naive.SimSeconds)
	}
}

func TestLRScheduleApplied(t *testing.T) {
	job := testJob(t, 160, 4)
	job.LRSchedule = nn.StepLR{Base: 0.02, Gamma: 0.1, StepSize: 2}
	// Schedules must not break training or determinism.
	a, err := (&SoCFlow{NumGroups: 4, Mixed: MixedOff}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&SoCFlow{NumGroups: 4, Mixed: MixedOff}).Run(context.Background(), job, clu32())
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatal("schedule broke determinism")
	}
	if job.EpochLR(0) != 0.02 || job.EpochLR(3) >= 0.0021 {
		t.Fatalf("EpochLR wrong: %v %v", job.EpochLR(0), job.EpochLR(3))
	}
}
