package collective

import (
	"math/rand"
	"slices"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/simnet"
)

// RingFlows is the one definition of a ring's flows (the benchmark's
// simnet probe and the Memo both consume it): member i streams
// 2(N-1)/N·bytes to member i+1 over the cluster's path, in member order.
func TestRingFlowsOrderAndPaths(t *testing.T) {
	c := newCluster(12)
	members := []int{7, 0, 3, 11, 4}
	flows := RingFlows(c, members, 10e6, 0.5)
	if len(flows) != len(members) {
		t.Fatalf("%d flows for %d members", len(flows), len(members))
	}
	for i, f := range flows {
		want := c.Path(members[i], members[(i+1)%len(members)])
		if !slices.Equal(f.Path, want) || f.Bytes != 2*4.0/5.0*10e6 || f.StartAt != 0.5 {
			t.Errorf("flow %d = %+v, want path %v", i, f, want)
		}
		if cap(f.Path) != len(f.Path) {
			t.Errorf("flow %d: path has spare capacity %d, appending to it would overwrite flow %d's", i, cap(f.Path)-len(f.Path), i+1)
		}
	}
	if RingFlows(c, []int{3}, 1e6, 0) != nil {
		t.Error("a one-member ring has no flows")
	}
}

// parentConcurrentRingTime is ConcurrentRingTime as it was written
// before the Memo: every solo ring and the combined window simulated
// from their own freshly built flows.
func parentConcurrentRingTime(c *cluster.Cluster, groups [][]int, bytes float64) float64 {
	var flows []*simnet.Flow
	var overhead, solo float64
	for _, members := range groups {
		flows = append(flows, RingFlows(c, members, bytes, 0)...)
		if o := ringOverhead(c, members, bytes); o > overhead {
			overhead = o
		}
		if ring := RingAllReduceTime(c, members, bytes); ring > solo {
			solo = ring
		}
	}
	if len(flows) == 0 {
		return 0
	}
	combined := simnet.Simulate(flows) + overhead
	if combined > solo*1.001 {
		return solo + (combined-solo)*contentionPenalty
	}
	return combined
}

// One long-lived Memo, fed hundreds of member lists drawn from a
// cluster whose last PCB is half empty, must answer every one exactly as
// the package-level functions do — whether the shape is new, seen
// before, or only isomorphic to one seen before — while simulating far
// fewer flows.
func TestMemoMatchesFromScratch(t *testing.T) {
	c := newCluster(37)
	memo := NewMemo()
	rng := rand.New(rand.NewSource(1))
	payloads := []float64{1e6, 42e6}
	var memoFlows, scratchFlows int64
	measure := func(into *int64, f func() float64) float64 {
		before := simnet.SnapshotStats()
		v := f()
		*into += simnet.SnapshotStats().Delta(before).Flows
		return v
	}
	for trial := 0; trial < 400; trial++ {
		perm := rng.Perm(37)
		if trial%2 == 0 {
			slices.Sort(perm[:20]) // contiguous runs, as the mappers place groups
		}
		bytes := payloads[rng.Intn(len(payloads))]
		var groups [][]int
		for rest := perm[:rng.Intn(30)]; len(rest) > 0; {
			k := min(1+rng.Intn(6), len(rest))
			groups = append(groups, rest[:k])
			rest = rest[k:]
		}
		for _, members := range groups {
			got := measure(&memoFlows, func() float64 { return memo.RingAllReduceTime(c, members, bytes) })
			want := measure(&scratchFlows, func() float64 { return RingAllReduceTime(c, members, bytes) })
			if got != want {
				t.Fatalf("trial %d: ring %v: memo %x, from scratch %x", trial, members, got, want)
			}
			// Broadcast from a member and from an outsider.
			for _, src := range []int{members[0], perm[36]} {
				got := measure(&memoFlows, func() float64 { return memo.BroadcastTime(c, src, members, bytes) })
				want := measure(&scratchFlows, func() float64 { return BroadcastTime(c, src, members, bytes) })
				if got != want {
					t.Fatalf("trial %d: broadcast %d -> %v: memo %x, from scratch %x", trial, src, members, got, want)
				}
			}
		}
		got := measure(&memoFlows, func() float64 { return memo.ConcurrentRingTime(c, groups, bytes) })
		want := measure(&scratchFlows, func() float64 { return ConcurrentRingTime(c, groups, bytes) })
		if parent := parentConcurrentRingTime(c, groups, bytes); got != want || want != parent {
			t.Fatalf("trial %d: concurrent rings %v: memo %x, from scratch %x, as the parent wrote it %x", trial, groups, got, want, parent)
		}
	}
	if memoFlows*2 > scratchFlows {
		t.Errorf("the memo simulated %d flows where from-scratch pricing simulated %d; want under half (every random combined window is new)", memoFlows, scratchFlows)
	}

	// The memo rebuilds every window it simulates in its own flow
	// buffers. Walk the same memo through misses whose flow count grows
	// to the whole cluster and shrinks back, ring windows and broadcasts
	// interleaved (a fresh payload each step makes every window new),
	// while a set RingFlows returned earlier must stay as it was built.
	held := RingFlows(c, seededPerm(37)[:9], 5e6, 0.25)
	want := make([]simnet.Flow, len(held))
	for i, f := range held {
		want[i] = simnet.Flow{Name: f.Name, Path: slices.Clone(f.Path), Bytes: f.Bytes, StartAt: f.StartAt}
	}
	sizes := []int{2, 5, 9, 17, 26, 37, 30, 12, 6, 3, 2}
	for step, k := range sizes {
		members := seededPerm(37)[:k]
		groups := [][]int{members[:k/2+1], members[k/2+1:]}
		bytes := 1e6 + float64(step)
		if got, want := memo.ConcurrentRingTime(c, groups, bytes), ConcurrentRingTime(c, groups, bytes); got != want {
			t.Fatalf("step %d: concurrent rings %v: memo %x, from scratch %x", step, groups, got, want)
		}
		src := members[k-1]
		if got, want := memo.BroadcastTime(c, src, members, bytes), BroadcastTime(c, src, members, bytes); got != want {
			t.Fatalf("step %d: broadcast %d -> %v: memo %x, from scratch %x", step, src, members, got, want)
		}
		if got, want := memo.RingAllReduceTime(c, members, bytes), RingAllReduceTime(c, members, bytes); got != want {
			t.Fatalf("step %d: ring %v: memo %x, from scratch %x", step, members, got, want)
		}
	}
	for i, f := range held {
		w := want[i]
		if f.Name != w.Name || !slices.Equal(f.Path, w.Path) || f.Bytes != w.Bytes || f.StartAt != w.StartAt {
			t.Fatalf("RingFlows' flow %d changed under later memo windows: %+v, built as %+v", i, *f, w)
		}
	}
	if again := RingFlows(c, seededPerm(37)[:9], 5e6, 0.25); again[0] == held[0] || &again[0].Path[0] == &held[0].Path[0] {
		t.Error("RingFlows returned flows it had returned before; want a fresh set per call")
	}
}

// seededPerm returns a seeded permutation of [0, n), the same on every call.
func seededPerm(n int) []int { return rand.New(rand.NewSource(7)).Perm(n) }

// Repricing a remembered window allocates nothing: the key is built in
// the Memo's own buffer and looked up without being copied.
func TestMemoHitsDoNotAllocate(t *testing.T) {
	c := newCluster(32)
	memo := NewMemo()
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	price := func() {
		memo.ConcurrentRingTime(c, groups, 42e6)
		memo.RingAllReduceTime(c, groups[1], 42e6)
		memo.BroadcastTime(c, 4, groups[1], 42e6)
	}
	price()
	if avg := testing.AllocsPerRun(20, price); avg != 0 {
		t.Errorf("pricing remembered windows allocates %.1f objects/run, want 0", avg)
	}
}
