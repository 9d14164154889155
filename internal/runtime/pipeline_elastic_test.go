package runtime

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"socflow/internal/core"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/transport"
)

// elasticPipePlan searches a pipeline plan for the elastic tests and
// returns it with the exact options used, so runs can hand the same
// options to the re-planner (consistent pricing end to end).
func elasticPipePlan(t *testing.T, socs, maxGroups, batch, samples int) (*autoplan.Plan, *autoplan.Options) {
	t.Helper()
	o := &autoplan.Options{
		Spec:        nn.MustSpec("lenet5"),
		NumSoCs:     socs,
		MaxGroups:   maxGroups,
		GlobalBatch: batch,
		Samples:     samples,
		Only:        autoplan.ModePipeline,
	}
	p, err := autoplan.Search(*o)
	if err != nil {
		t.Fatal(err)
	}
	return p, o
}

// The elastic pipeline track must be a behavioural superset of the
// plain one: with no faults, the barrier rounds, snapshots, and the
// epoch-end full-model sync change nothing — per-epoch accuracies and
// final weights match bit for bit.
func TestElasticPipelineFaultFreeBitIdentical(t *testing.T) {
	spec, train, val := elasticFixture(t, 240)
	p, _ := elasticPipePlan(t, 4, 1, 16, train.Len())
	js := core.JobSpec{Epochs: 3, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4}

	plain, err := RunDistributed(context.Background(), transport.NewChanMesh(4), spec, train, val, DistConfig{
		JobSpec: js, Plan: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := RunDistributed(context.Background(), transport.NewChanMesh(4), spec, train, val, DistConfig{
		JobSpec: js, Plan: p, Recovery: fastRecovery(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.EpochAccuracies, elastic.EpochAccuracies) {
		t.Fatalf("epoch accuracies diverged: plain %v vs elastic %v", plain.EpochAccuracies, elastic.EpochAccuracies)
	}
	pw, ew := plain.Final.Weights(), elastic.Final.Weights()
	for ti := range pw {
		if !reflect.DeepEqual(pw[ti].Data, ew[ti].Data) {
			t.Fatalf("weight tensor %d differs between plain and elastic runs", ti)
		}
	}
	ps, es := plain.Final.StateTensors(), elastic.Final.StateTensors()
	for ti := range ps {
		if !reflect.DeepEqual(ps[ti].Data, es[ti].Data) {
			t.Fatalf("state tensor %d differs between plain and elastic runs", ti)
		}
	}
	if elastic.Recovery == nil {
		t.Fatal("elastic result must carry recovery stats")
	}
	if s := elastic.Recovery; s.Detections != 0 || s.Retries != 0 || s.Rejoins != 0 {
		t.Fatalf("fault-free run recorded recovery activity: %+v", s)
	}
	if len(elastic.Replans) != 0 {
		t.Fatalf("fault-free run recorded replan episodes: %+v", elastic.Replans)
	}
}

// A permanent stage crash mid-campaign: heartbeats detect it, the
// planner re-plans onto the surviving fleet, state migrates, and the
// run completes within the retry budget with accuracy within 2 points
// of the fault-free run. Every adopted plan's predicted epoch seconds
// must equal its executed epoch seconds exactly.
func TestElasticPipelineCrashReplansAndCompletes(t *testing.T) {
	spec, train, val := elasticFixture(t, 300)
	p, popts := elasticPipePlan(t, 6, 2, 16, train.Len())
	js := core.JobSpec{Epochs: 5, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4}

	clean, err := RunDistributed(context.Background(), transport.NewChanMesh(6), spec, train, val, DistConfig{
		JobSpec: js, Plan: p, Planner: popts, Recovery: fastRecovery(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill a placed stage of the last group, permanently, mid-epoch.
	victim := p.Placement[p.Groups()-1][0]
	res, err := RunDistributed(context.Background(), transport.NewChanMesh(6), spec, train, val, DistConfig{
		JobSpec: js, Plan: p, Planner: popts, Recovery: fastRecovery(),
		Faults: &transport.FaultPlan{Events: []transport.FaultEvent{
			{Kind: transport.FaultCrash, Node: victim, Epoch: 1, Iter: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Recovery
	if s == nil || s.Detections < 1 {
		t.Fatalf("crash went undetected: %+v", s)
	}
	if s.Retries < 1 {
		t.Fatalf("failed epoch was not retried: %+v", s)
	}
	if len(res.Replans) < 1 {
		t.Fatalf("membership change produced no replan episode: %+v", res.Recovery)
	}
	for _, ep := range res.Replans {
		if ep.Trigger != "crash" {
			t.Fatalf("episode trigger %q, want crash: %+v", ep.Trigger, ep)
		}
		if ep.Decision != "replan" && ep.Decision != "degrade" {
			t.Fatalf("episode decision %q: %+v", ep.Decision, ep)
		}
		if ep.PredictedEpochSeconds != ep.ExecutedEpochSeconds {
			t.Fatalf("adopted plan predicted %.9fs but executed %.9fs: %+v",
				ep.PredictedEpochSeconds, ep.ExecutedEpochSeconds, ep)
		}
		if ep.OldPlan == "" || ep.NewPlan == "" || ep.OldPlan == ep.NewPlan {
			t.Fatalf("episode must name distinct old and new plans: %+v", ep)
		}
	}
	finalClean := clean.EpochAccuracies[len(clean.EpochAccuracies)-1]
	finalElastic := res.EpochAccuracies[len(res.EpochAccuracies)-1]
	if math.Abs(finalClean-finalElastic) > 0.02+1e-9 {
		t.Fatalf("final accuracy %v drifted more than 2 points from fault-free %v", finalElastic, finalClean)
	}
}

// A tidal shrink delivered on the Resizes channel mid-campaign reclaims
// the highest-numbered SoCs; the manager re-plans onto what is left and
// finishes the campaign on the smaller fleet.
func TestElasticPipelineTidalShrink(t *testing.T) {
	spec, train, val := elasticFixture(t, 300)
	p, popts := elasticPipePlan(t, 6, 2, 16, train.Len())
	resizes := make(chan int, 1)
	cfg := DistConfig{
		JobSpec:  core.JobSpec{Epochs: 5, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:     p,
		Planner:  popts,
		Resizes:  resizes,
		Recovery: fastRecovery(),
		EpochEnd: func(epoch int, _ float64) {
			if epoch == 1 {
				resizes <- 4
			}
		},
	}
	res, err := RunDistributed(context.Background(), transport.NewChanMesh(6), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || res.Recovery.MembershipEpoch < 2 {
		t.Fatalf("shrink to 4 must write out two SoCs: %+v", res.Recovery)
	}
	if len(res.Replans) < 1 {
		t.Fatal("tidal shrink produced no replan episode")
	}
	ep := res.Replans[0]
	if ep.Trigger != "resize" {
		t.Fatalf("episode trigger %q, want resize: %+v", ep.Trigger, ep)
	}
	if ep.PredictedEpochSeconds != ep.ExecutedEpochSeconds {
		t.Fatalf("adopted plan predicted %.9fs but executed %.9fs", ep.PredictedEpochSeconds, ep.ExecutedEpochSeconds)
	}
	best := 0.0
	for _, a := range res.EpochAccuracies {
		if a > best {
			best = a
		}
	}
	if best < 0.75 {
		t.Fatalf("shrunken pipeline run reached only %v", best)
	}
}

// lossyMesh silently loses the data frames one node sends another once
// armed. Heartbeats keep flowing, so the receiver stays observably
// alive while the frame it waits for never comes.
type lossyMesh struct {
	transport.Mesh
	from, to int
	armed    atomic.Bool
}

func (m *lossyMesh) Node(i int) transport.Node {
	if i != m.from {
		return m.Mesh.Node(i)
	}
	return lossyNode{m.Mesh.Node(i), m}
}

type lossyNode struct {
	transport.Node
	m *lossyMesh
}

func (n lossyNode) Send(to int, payload []byte) error {
	// The heartbeat layer tags data frames 0x00 and beats 0x01.
	if to == n.m.to && n.m.armed.Load() && len(payload) > 0 && payload[0] == 0 {
		return nil
	}
	return n.Node.Send(to, payload)
}

// Regression for the reclaim hang: a node the tide writes out while its
// goroutine is healthy and parked in Recv on a *live* peer must still be
// woken when its round fails — nothing else ever will. The leader's
// epoch-end full-model frame to the victim is lost at the same moment
// the shrink arrives, which holds the victim in that Recv no matter how
// the goroutines are scheduled; the run has to return regardless.
func TestElasticPipelineReclaimWakesParkedVictim(t *testing.T) {
	spec, train, val := elasticFixture(t, 300)
	p, popts := elasticPipePlan(t, 6, 2, 16, train.Len())
	const victim = 5 // the highest-numbered SoC is reclaimed first
	if _, _, placed := positionIn(stageGroups(p), victim); !placed || p.Placement[0][0] == victim {
		t.Fatalf("plan %s does not place node %d behind another leader", p, victim)
	}
	mesh := &lossyMesh{Mesh: transport.NewChanMesh(6), from: p.Placement[0][0], to: victim}
	resizes := make(chan int, 1)
	cfg := DistConfig{
		JobSpec:  core.JobSpec{Epochs: 4, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:     p,
		Planner:  popts,
		Resizes:  resizes,
		Recovery: fastRecovery(),
		EpochEnd: func(epoch int, _ float64) {
			if epoch == 1 && !mesh.armed.Swap(true) {
				resizes <- 4
			}
		},
	}
	type outcome struct {
		res *DistResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunDistributed(context.Background(), mesh, spec, train, val, cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if len(o.res.Replans) < 1 || o.res.Replans[0].Trigger != "resize" {
			t.Fatalf("shrink produced no resize episode: %+v", o.res.Replans)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run hung: the reclaimed node was never woken from its Recv")
	}
}

// When dropping the broken group prices no worse than any re-plan of
// the survivors, the elastic pipeline recovers by degrading in place:
// the survivors carry the campaign on the incumbent's cuts. Without a
// Planner the re-planner plans for the run as it is.
func TestElasticPipelineDegradeOnlyRecovery(t *testing.T) {
	spec, train, val := elasticFixture(t, 300)
	p, _ := elasticPipePlan(t, 6, 2, 16, train.Len())
	if p.Groups() < 2 {
		t.Skipf("search chose %d group(s); the degrade test needs 2", p.Groups())
	}
	victim := p.Placement[p.Groups()-1][0]
	res, err := RunDistributed(context.Background(), transport.NewChanMesh(6), spec, train, val, DistConfig{
		JobSpec:  core.JobSpec{Epochs: 4, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:     p,
		Recovery: fastRecovery(),
		Faults: &transport.FaultPlan{Events: []transport.FaultEvent{
			{Kind: transport.FaultCrash, Node: victim, Epoch: 1, Iter: 0},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replans) < 1 {
		t.Fatal("recovery must record its decision")
	}
	if d := res.Replans[0].Decision; d != "degrade" {
		t.Fatalf("decision %q (%s -> %s), want degrade", d, res.Replans[0].OldPlan, res.Replans[0].NewPlan)
	}
}
