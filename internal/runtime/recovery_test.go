package runtime

import (
	"errors"
	"strings"
	"testing"
	"time"

	autoplan "socflow/internal/plan"
	"socflow/internal/transport"
)

// arrival is what one call to the barrier returned.
type arrival struct {
	node int
	r    *round
	err  error
}

// barrier drives a roundManager's worker-facing barrier directly: the
// simulated workers are goroutines parked in next, deaths are injected
// by writing a node out under the lock exactly as the supervisor does,
// and nothing trains. The heartbeat mesh never beats and never times
// out, so the only membership changes are the scripted ones.
type barrier struct {
	t   *testing.T
	m   *roundManager
	hb  *transport.HeartbeatMesh
	got chan arrival
	// spawned receives each node the manager re-admits.
	spawned chan int
}

// barrierPolicies builds both round policies over the same 2x2 layout:
// data-parallel groups {0,1},{2,3} and the searched pipeline plan that
// places the same nodes as two depth-2 groups (degrade-only recovery).
func barrierPolicies(t *testing.T) map[string]func() roundPolicy {
	p, o := elasticPipePlan(t, 4, 2, 16, 192)
	if p.Groups() != 2 || p.Depth() != 2 {
		t.Fatalf("search chose %s; the barrier tests need 2 groups of depth 2", p)
	}
	return map[string]func() roundPolicy{
		"data":     func() roundPolicy { return &dpPolicy{groups: [][]int{{0, 1}, {2, 3}}} },
		"pipeline": func() roundPolicy { return &pipePolicy{popts: *o, pricer: autoplan.PricerFor(*o), plan: p} },
	}
}

func newBarrier(t *testing.T, policy roundPolicy, epochs int, rc RecoveryConfig) *barrier {
	t.Helper()
	rc.RetryBackoff = time.Microsecond
	hb := transport.WithHeartbeat(transport.NewChanMesh(4), time.Hour, 24*time.Hour, nil)
	// Buffers sized so no simulated worker ever blocks on the test: 4
	// nodes, a handful of lives each.
	b := &barrier{t: t, hb: hb, got: make(chan arrival, 16), spawned: make(chan int, 4)}
	b.m = newRoundManager(epochs, rc, hb, nil, []int{0, 1, 2, 3}, policy)
	b.m.spawnFn = func(x int) {
		b.spawned <- x
		b.arrive(x, nil, nil)
	}
	t.Cleanup(func() {
		b.m.close()
		hb.Close()
	})
	return b
}

// arrive parks node at the barrier, reporting how its last round ended.
func (b *barrier) arrive(node int, last *round, lastErr error) {
	go func() {
		r, err := b.m.next(node, last, lastErr)
		b.got <- arrival{node, r, err}
	}()
}

// one waits for the next barrier return.
func (b *barrier) one() arrival {
	b.t.Helper()
	select {
	case a := <-b.got:
		return a
	case <-time.After(30 * time.Second):
		b.t.Fatal("barrier never returned")
		return arrival{}
	}
}

// released waits until one round has let all of its participants
// through and returns it.
func (b *barrier) released() *round {
	b.t.Helper()
	first := b.one()
	if first.err != nil || first.r == nil {
		b.t.Fatalf("node %d left the barrier with (%v, %v), want a round", first.node, first.r, first.err)
	}
	for i := 1; i < len(first.r.parts); i++ {
		if a := b.one(); a.r != first.r {
			b.t.Fatalf("node %d got (%v, %v), want round %d", a.node, a.r, a.err, first.r.seq)
		}
	}
	return first.r
}

// finish has every participant of r report back: nil for success.
func (b *barrier) finish(r *round, err error) {
	for _, x := range r.parts {
		b.arrive(x, r, err)
	}
}

// kill writes node x out the way superviseOnce does on a missed
// timeout.
func (b *barrier) kill(x int) {
	b.m.mu.Lock()
	b.m.writeOutLocked(x, "crash")
	b.m.checkReadyLocked()
	b.m.mu.Unlock()
}

func (b *barrier) stats() RecoveryStats {
	b.m.mu.Lock()
	defer b.m.mu.Unlock()
	return b.m.stats
}

// The round barrier, both policies: first release, a participant's
// death failing the round and interrupting every participant, the retry
// with restore and attempt+1, a written-out worker's (nil, nil), and
// the retry budget's fatal error naming the epoch.
func TestRoundBarrierRetryAndBudget(t *testing.T) {
	for name, policy := range barrierPolicies(t) {
		t.Run(name, func(t *testing.T) {
			b := newBarrier(t, policy(), 3, RecoveryConfig{MaxRetries: 1})
			for x := 0; x < 4; x++ {
				b.arrive(x, nil, nil)
			}
			r1 := b.released()
			if r1.seq != 1 || r1.epoch != 0 || r1.attempt != 0 || r1.restore || len(r1.parts) != 4 || len(r1.transfer) != 0 {
				t.Fatalf("first round = %+v", r1)
			}
			// A healthy fleet survives a supervisor reading untouched.
			b.m.superviseOnce()
			if s := b.stats(); s.Detections != 0 || r1.failed {
				t.Fatalf("supervisor declared a live worker dead: %+v", s)
			}

			b.kill(3)
			if !r1.failed {
				t.Fatal("a participant's death must fail the round")
			}
			// Every participant is interrupted — the written-out node too:
			// its goroutine may be healthy and parked on a live peer.
			for _, x := range r1.parts {
				if err := b.hb.Node(x).Send((x+1)%4, nil); !errors.Is(err, transport.ErrRoundAborted) {
					t.Fatalf("node %d not interrupted after the round failed: %v", x, err)
				}
			}
			b.arrive(3, r1, transport.ErrRoundAborted)
			if a := b.one(); a.node != 3 || a.r != nil || a.err != nil {
				t.Fatalf("written-out worker got (%v, %v), want (nil, nil)", a.r, a.err)
			}

			for x := 0; x < 3; x++ {
				b.arrive(x, r1, transport.ErrRoundAborted)
			}
			r2 := b.released()
			if r2.epoch != 0 || r2.attempt != 1 || !r2.restore || r2.seq != 2 || r2.gen == r1.gen || r2.has(3) {
				t.Fatalf("retry round = %+v", r2)
			}
			if err := b.hb.Node(r2.parts[0]).Send(r2.parts[1], nil); err != nil {
				t.Fatalf("release must clear the interrupt: %v", err)
			}
			if s := b.stats(); s.Detections != 1 || s.Retries != 1 || s.MembershipEpoch != 1 {
				t.Fatalf("stats after one death and one retry: %+v", s)
			}

			b.kill(r2.parts[len(r2.parts)-1])
			b.finish(r2, transport.ErrRoundAborted)
			// Everyone still at the barrier — participants and, on the
			// pipeline track, the group-less spare — learns the run is over.
			for x := 0; x < 3; x++ {
				a := b.one()
				if a.err == nil || !strings.Contains(a.err.Error(), "epoch 0 retry budget exhausted") {
					t.Fatalf("node %d got (%v, %v), want the exhausted budget naming epoch 0", a.node, a.r, a.err)
				}
			}
		})
	}
}

// Closing the manager releases a parked worker with ErrMeshClosed.
func TestRoundBarrierClose(t *testing.T) {
	for name, policy := range barrierPolicies(t) {
		t.Run(name, func(t *testing.T) {
			b := newBarrier(t, policy(), 3, RecoveryConfig{MaxRetries: 1})
			b.arrive(0, nil, nil) // parked: three peers never arrive
			b.m.close()
			if a := b.one(); !errors.Is(a.err, transport.ErrMeshClosed) {
				t.Fatalf("parked worker got (%v, %v), want ErrMeshClosed", a.r, a.err)
			}
		})
	}
}

// A scheduled returner is admitted the moment the first worker reaches
// the boundary of its due epoch; when a slower peer then fails that
// same round, the next release is a retry of the *earlier* epoch, which
// the joiner must sit out at the barrier. The data-parallel policy
// brings it in, by state transfer from a groupmate, at the epoch it is
// due; the degrade-only pipeline policy has no placement for it.
func TestRoundBarrierJoinerSitsOutEarlierRetry(t *testing.T) {
	joinsAt := map[string]bool{"data": true, "pipeline": false}
	for name, policy := range barrierPolicies(t) {
		t.Run(name, func(t *testing.T) {
			b := newBarrier(t, policy(), 4, RecoveryConfig{MaxRetries: 3, Rejoins: []Rejoin{{Node: 3, Epoch: 2}}})
			for x := 0; x < 4; x++ {
				b.arrive(x, nil, nil)
			}
			b.finish(b.released(), nil) // epoch 0
			r2 := b.released()          // epoch 1
			b.kill(3)
			b.arrive(3, r2, transport.ErrRoundAborted)
			if a := b.one(); a.node != 3 || a.r != nil || a.err != nil {
				t.Fatalf("written-out worker got (%v, %v), want (nil, nil)", a.r, a.err)
			}
			for x := 0; x < 3; x++ {
				b.arrive(x, r2, transport.ErrRoundAborted)
			}
			r3 := b.released()
			if r3.epoch != 1 || r3.attempt != 1 {
				t.Fatalf("retry round = %+v", r3)
			}

			// The first finisher opens epoch 2's boundary: node 3 is
			// admitted and its fresh worker parks at the barrier.
			b.arrive(r3.parts[0], r3, nil)
			select {
			case x := <-b.spawned:
				if x != 3 || b.stats().Rejoins != 1 {
					t.Fatalf("admitted node %d with stats %+v, want node 3 once", x, b.stats())
				}
			case <-time.After(30 * time.Second):
				t.Fatal("due rejoin was never admitted")
			}
			// A slower peer fails the same round: epoch 1 retries again.
			for _, x := range r3.parts[1:] {
				b.arrive(x, r3, transport.ErrPeerDead)
			}
			r4 := b.released()
			if r4.epoch != 1 || r4.attempt != 2 || !r4.restore {
				t.Fatalf("second retry round = %+v", r4)
			}
			if r4.has(3) {
				t.Fatalf("joiner due at epoch 2 was released into a retry of epoch 1: %+v", r4)
			}

			b.finish(r4, nil)
			r5 := b.released()
			if r5.epoch != 2 || r5.attempt != 0 {
				t.Fatalf("round after the retries = %+v", r5)
			}
			if r5.has(3) != joinsAt[name] {
				t.Fatalf("joiner in epoch-2 round = %v, want %v: %+v", r5.has(3), joinsAt[name], r5)
			}
			if joinsAt[name] && r5.transfer[3] != 2 {
				t.Fatalf("joiner's state must come from its stateful groupmate 2, got transfer %v", r5.transfer)
			}
		})
	}
}
