package transport

import (
	"errors"
	"testing"
	"time"
)

func TestFaultPlanCrashTimeline(t *testing.T) {
	p := &FaultPlan{Events: []FaultEvent{
		{Kind: FaultCrash, Node: 2, Epoch: 1, Iter: 3},
		{Kind: FaultCrash, Node: 2, Epoch: 2, Iter: 0}, // later duplicate: the earliest trigger wins
		{Kind: FaultCrash, Node: 5, Epoch: 0, Iter: 0},
		{Kind: FaultCrash, Node: 6, Epoch: 1, Iter: 0, UntilEpoch: 2, UntilIter: 0}, // a preemption window
	}}
	for _, tc := range []struct {
		node, epoch, iter int
		want              bool
	}{
		{2, 0, 99, false}, {2, 1, 2, false}, {2, 1, 3, true}, {2, 1, IterEpochEnd, true}, {2, 2, 0, true},
		{5, 0, 0, true}, {5, 7, IterEpochEnd, true},
		{6, 0, IterEpochEnd, false}, {6, 1, 0, true}, {6, 1, IterEpochEnd, true}, {6, 2, 0, false},
		{0, 7, IterEpochEnd, false}, {7, 0, 5, false},
	} {
		if got := p.CrashedAt(tc.node, tc.epoch, tc.iter); got != tc.want {
			t.Fatalf("CrashedAt(%d,%d,%d) = %v, want %v", tc.node, tc.epoch, tc.iter, got, tc.want)
		}
	}
	if p.Crashes() != 3 {
		t.Fatalf("Crashes = %d, want 3 distinct nodes", p.Crashes())
	}
	var nilPlan *FaultPlan
	if nilPlan.CrashedAt(0, 0, 0) || nilPlan.Crashes() != 0 {
		t.Fatal("nil plan must inject nothing")
	}
}

func TestRandomCrashPlanDeterministic(t *testing.T) {
	a := RandomCrashPlan(9, 8, 6, 2)
	b := RandomCrashPlan(9, 8, 6, 2)
	if len(a.Events) != 2 || len(b.Events) != 2 {
		t.Fatalf("want 2 events, got %d and %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed must give same plan: %+v vs %+v", a.Events[i], b.Events[i])
		}
		if a.Events[i].Epoch == 0 {
			t.Fatalf("multi-epoch plan must spare epoch 0: %+v", a.Events[i])
		}
	}
	if a.Events[0].Node == a.Events[1].Node {
		t.Fatal("victims must be distinct")
	}
	if got := RandomCrashPlan(9, 4, 6, 9).Crashes(); got != 4 {
		t.Fatalf("crash budget must clamp to mesh size, got %d", got)
	}
}

func TestFaultyMeshCrashFiresAtTrigger(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultCrash, Node: 0, Epoch: 1, Iter: 2}}}
	m := WithFaults(NewChanMesh(2), plan)
	defer m.Close()
	n0 := m.Node(0)
	tick := n0.(FaultTicker)

	tick.TickFault(1, 1)
	if err := n0.Send(1, []byte{1}); err != nil {
		t.Fatalf("send before trigger: %v", err)
	}
	tick.TickFault(1, 2)
	if err := n0.Send(1, []byte{2}); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("send at trigger = %v, want ErrInjectedCrash", err)
	}
	if _, err := n0.Recv(1); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("recv at trigger = %v, want ErrInjectedCrash", err)
	}
	// The healthy node is unaffected and still drains the pre-crash frame.
	if msg, err := m.Node(1).Recv(0); err != nil || msg[0] != 1 {
		t.Fatalf("peer recv = %v %v", msg, err)
	}
}

func TestFaultyMeshLinkDropIsDirectional(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultLinkDrop, Node: 0, Peer: 1, Epoch: 0, Iter: 0}}}
	m := WithFaults(NewChanMesh(3), plan)
	defer m.Close()
	if err := m.Node(0).Send(1, []byte{1}); !errors.Is(err, ErrInjectedLinkDrop) {
		t.Fatalf("0->1 send = %v, want ErrInjectedLinkDrop", err)
	}
	if _, err := m.Node(1).Recv(0); !errors.Is(err, ErrInjectedLinkDrop) {
		t.Fatalf("1<-0 recv = %v, want ErrInjectedLinkDrop", err)
	}
	// The reverse direction and other links stay up.
	if err := m.Node(1).Send(0, []byte{2}); err != nil {
		t.Fatalf("1->0 send: %v", err)
	}
	if msg, err := m.Node(0).Recv(1); err != nil || msg[0] != 2 {
		t.Fatalf("0<-1 recv = %v %v", msg, err)
	}
	if err := m.Node(0).Send(2, []byte{3}); err != nil {
		t.Fatalf("0->2 send: %v", err)
	}
}

func TestFaultyMeshStraggleDelaysOnlyTriggerIter(t *testing.T) {
	const delay = 30 * time.Millisecond
	plan := &FaultPlan{Events: []FaultEvent{{Kind: FaultStraggle, Node: 0, Epoch: 0, Iter: 1, Delay: delay}}}
	m := WithFaults(NewChanMesh(2), plan)
	defer m.Close()
	n0 := m.Node(0)
	tick := n0.(FaultTicker)

	tick.TickFault(0, 1)
	start := time.Now()
	if err := n0.Send(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < delay {
		t.Fatalf("straggle send took %v, want >= %v", got, delay)
	}
	tick.TickFault(0, 2)
	start = time.Now()
	if err := n0.Send(1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got > delay {
		t.Fatalf("post-straggle send took %v, want fast", got)
	}
}

func TestFaultyMeshPassesThroughMeshAPI(t *testing.T) {
	inner := NewChanMesh(3)
	m := WithFaults(inner, &FaultPlan{})
	if m.Size() != 3 || m.Plan() == nil {
		t.Fatal("decorator must mirror the inner mesh")
	}
	if m.Node(1).ID() != 1 || m.Node(1).Size() != 3 {
		t.Fatal("wrapped node identity broken")
	}
	if m.Node(1) != m.Node(1) {
		t.Fatal("nodes must be cached so fault clocks persist")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing the decorator closes the inner mesh.
	if err := inner.Node(0).Send(1, nil); !errors.Is(err, ErrMeshClosed) {
		t.Fatalf("inner mesh must be closed, got %v", err)
	}
}
