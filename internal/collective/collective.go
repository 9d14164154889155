// Package collective implements the communication primitives that
// distributed training strategies are assembled from: Ring-AllReduce,
// parameter-server push/pull, hierarchical tree aggregation, and
// broadcast — each in two coupled halves.
//
// The timing half prices a collective on the simulated SoC-Cluster by
// generating the constituent network flows and running them through
// simnet's contention-aware simulator (the fluid approximation of a
// ring: every member continuously streams its 2(N-1)/N·S bytes to its
// successor, which matches the phase-by-phase payload time on a
// symmetric topology and composes correctly when multiple groups share
// NICs).
//
// The math half performs the equivalent aggregation on real tensors so
// the functional training track stays bit-faithful to what each
// topology computes.
package collective

import (
	"encoding/binary"
	"math"
	"slices"

	"socflow/internal/cluster"
	"socflow/internal/simnet"
	"socflow/internal/tensor"
)

// ringStepOverhead is the per-ring-step software cost (chunk
// bookkeeping, ack round-trip). Inter-PCB steps are costlier; fitted
// alongside the Fig. 4(b) latencies.
const (
	ringStepOverheadIntra = 0.002
	ringStepOverheadInter = 0.008
)

// RingFlows returns the fluid-approximation flows of one ring
// all-reduce over members: member i streams 2(N-1)/N · bytes to its
// ring successor. Callers combine flows from several groups to model
// concurrent synchronization. The flows are freshly allocated (one
// allocation each for the pointers, the flows and their paths, whatever
// the ring's size).
func RingFlows(c *cluster.Cluster, members []int, bytes float64, startAt float64) []*simnet.Flow {
	n := len(members)
	if n < 2 {
		return nil
	}
	var fs flowSet
	fs.grow(n)
	fs.appendRing(c, members, bytes, startAt)
	return fs.pointers()
}

// flowSet lays out one flow set: the flows, their pointers and their
// link paths, each in one backing array. A Memo keeps one and rebuilds
// every window it simulates into it; RingFlows and the nil Memo build
// into a fresh one.
type flowSet struct {
	ptrs  []*simnet.Flow
	flows []simnet.Flow
	links []*simnet.Link
}

// reset empties the set, keeping its arrays for the next window.
func (fs *flowSet) reset() {
	fs.flows, fs.links = fs.flows[:0], fs.links[:0]
}

// grow makes room for n more flows of at most five links each (the
// longest cluster path), so building them allocates nothing.
func (fs *flowSet) grow(n int) {
	fs.flows = slices.Grow(fs.flows, n)
	fs.links = slices.Grow(fs.links, 5*n)
}

// appendFlow appends a src->dst flow. Its path is capped so appending
// to it can never overwrite the next flow's.
func (fs *flowSet) appendFlow(c *cluster.Cluster, name string, src, dst int, bytes, startAt float64) {
	lo := len(fs.links)
	fs.links = c.AppendPath(fs.links, src, dst)
	fs.flows = append(fs.flows, simnet.Flow{Name: name, Path: fs.links[lo:len(fs.links):len(fs.links)], Bytes: bytes, StartAt: startAt})
}

// appendRing appends one ring all-reduce's flows, in member order.
func (fs *flowSet) appendRing(c *cluster.Cluster, members []int, bytes, startAt float64) {
	n := len(members)
	if n < 2 {
		return
	}
	payload := 2 * float64(n-1) / float64(n) * bytes
	for i, src := range members {
		fs.appendFlow(c, "ring", src, members[(i+1)%n], payload, startAt)
	}
}

// pointers returns the set's flows as the pointer list simnet takes.
// Taken once the set is complete, so no pointer outlives a regrown
// array.
func (fs *flowSet) pointers() []*simnet.Flow {
	fs.ptrs = slices.Grow(fs.ptrs[:0], len(fs.flows))
	for i := range fs.flows {
		fs.ptrs = append(fs.ptrs, &fs.flows[i])
	}
	return fs.ptrs
}

// ringOverhead returns the per-collective fixed costs: 2(N-1) step
// overheads plus connection/tensor-registration setup when the group
// spans PCBs (§2.3 measures ~1.3 s of preparation at 32 SoCs for
// ResNet-18). Setup scales with payload — it is dominated by per-chunk
// registration and staging — so compressed collectives (HiPress) pay
// proportionally less.
func ringOverhead(c *cluster.Cluster, members []int, bytes float64) float64 {
	n := len(members)
	if n < 2 {
		return 0
	}
	spans := spansPCBs(c, members)
	step := ringStepOverheadIntra
	var setup float64
	if spans {
		step = ringStepOverheadInter
		setup = cluster.SyncStartupPerSoC * float64(n) * 0.75 * setupSizeFactor(bytes)
	}
	return float64(2*(n-1))*step + setup
}

// setupSizeFactor scales collective setup cost with payload, anchored
// to ResNet-18's ~55 MB (where the paper measured the 1.3 s prep).
func setupSizeFactor(bytes float64) float64 {
	f := bytes / 55e6
	if f > 1 {
		return 1
	}
	if f < 0.05 {
		return 0.05
	}
	return f
}

func spansPCBs(c *cluster.Cluster, members []int) bool {
	for _, m := range members[1:] {
		if !c.SamePCB(members[0], m) {
			return true
		}
	}
	return false
}

// Memo remembers the simulated time of every ring and broadcast window
// it has priced. The time of a window is a pure function of its payload
// and of its member lists' canonical shape — SoCs and PCBs relabelled by
// order of first appearance. Two windows with equal shapes generate
// flow sets that differ only by a renaming of links which preserves
// flow order, path order, capacity and latency (every SoC link is
// alike, every PCB link is alike, there is one fabric), so simnet
// performs the same float operations in the same order on both and the
// remembered time is bit-identical to a fresh simulation.
//
// A Memo belongs to one cluster and lives exactly as long as its owner
// (one plan.Pricer: one search, one strategy run); nothing is shared
// across owners. Every window it does simulate is built into its own
// flow buffers, which the next miss overwrites. A nil *Memo remembers
// nothing and prices every window from scratch in freshly allocated
// flows — the package-level functions, which tests use as the oracle.
// Not safe for concurrent use.
type Memo struct {
	times  map[string]float64
	key    []byte
	labels []label // per SoC, then per PCB: its label under the key being built
	gen    uint32
	flows  flowSet // the last simulated window's flows
}

type label struct {
	gen uint32
	id  uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{times: make(map[string]float64)} }

// shape builds the memo key of a window: its kind, payload and the
// canonical shape of lists. Valid until the next call.
func (m *Memo) shape(c *cluster.Cluster, kind byte, bytes float64, lists [][]int) []byte {
	nSoCs := len(c.SoCs)
	if len(m.labels) < nSoCs+c.NumPCBs {
		m.labels = make([]label, nSoCs+c.NumPCBs)
	}
	m.gen++
	var next [2]uint64 // labels handed out so far: SoCs, PCBs
	relabel := func(i int, class int) uint64 {
		l := &m.labels[i]
		if l.gen != m.gen {
			l.gen, l.id = m.gen, next[class]
			next[class]++
		}
		return l.id
	}
	key := binary.LittleEndian.AppendUint64(append(m.key[:0], kind), math.Float64bits(bytes))
	for _, members := range lists {
		key = binary.AppendUvarint(key, uint64(len(members)))
		for _, soc := range members {
			key = binary.AppendUvarint(key, relabel(soc, 0))
			key = binary.AppendUvarint(key, relabel(nSoCs+c.PCBOf(soc), 1))
		}
	}
	m.key = key
	return key
}

// window returns the simulated time of the flows build appends, which
// must be a function of kind, bytes and the shape of lists alone; n is
// how many flows build appends at most.
func (m *Memo) window(c *cluster.Cluster, kind byte, bytes float64, lists [][]int, n int, build func(*flowSet)) float64 {
	if m == nil {
		var fs flowSet
		return simulate(c, &fs, n, build)
	}
	key := m.shape(c, kind, bytes, lists)
	t, ok := m.times[string(key)]
	if !ok {
		m.flows.reset()
		t = simulate(c, &m.flows, n, build)
		m.times[string(key)] = t
	}
	return t
}

// simulate builds up to n flows into fs and simulates them.
func simulate(c *cluster.Cluster, fs *flowSet, n int, build func(*flowSet)) float64 {
	fs.grow(n)
	build(fs)
	return c.Simulate(fs.pointers())
}

// ringWindow returns the simulated network time of the groups' ring
// all-reduces running concurrently, without their fixed overheads.
func (m *Memo) ringWindow(c *cluster.Cluster, bytes float64, groups ...[]int) float64 {
	n := 0
	for _, members := range groups {
		n += len(members)
	}
	return m.window(c, 'r', bytes, groups, n, func(fs *flowSet) {
		for _, members := range groups {
			fs.appendRing(c, members, bytes, 0)
		}
	})
}

// RingAllReduceTime returns the simulated wall time of one ring
// all-reduce of `bytes` among members.
func RingAllReduceTime(c *cluster.Cluster, members []int, bytes float64) float64 {
	return (*Memo)(nil).RingAllReduceTime(c, members, bytes)
}

// RingAllReduceTime is the package-level function, remembered.
func (m *Memo) RingAllReduceTime(c *cluster.Cluster, members []int, bytes float64) float64 {
	if len(members) < 2 {
		return 0
	}
	return m.ringWindow(c, bytes, members) + ringOverhead(c, members, bytes)
}

// PSTime returns the simulated wall time of a parameter-server round:
// every member pushes `bytes` of gradients to the server SoC, then
// pulls `bytes` of fresh weights. The server's single NIC serializes
// both directions — the paper's Fig. 4(b) shows this collapsing at
// scale (20.6 s for VGG-11 at 32 SoCs).
func PSTime(c *cluster.Cluster, members []int, server int, bytes float64) float64 {
	var push []*simnet.Flow
	for _, m := range members {
		if m == server {
			continue
		}
		push = append(push, c.Flow("ps.push", m, server, bytes, 0))
	}
	if len(push) == 0 {
		return 0
	}
	t1 := c.Simulate(push)
	var pull []*simnet.Flow
	for _, m := range members {
		if m == server {
			continue
		}
		pull = append(pull, c.Flow("ps.pull", server, m, bytes, 0))
	}
	t2 := c.Simulate(pull)
	overhead := 0.0
	if spansPCBs(c, members) {
		overhead = cluster.SyncStartupPerSoC * float64(len(members)) * 0.5 * setupSizeFactor(bytes)
	}
	return t1 + t2 + overhead
}

// TreeAggregateTime returns the simulated wall time of a hierarchical
// aggregation (T-FedAvg, Jayaram et al.): members send to a per-PCB
// relay, relays send to the root, and the result is broadcast back down
// the same tree.
func TreeAggregateTime(c *cluster.Cluster, members []int, root int, bytes float64) float64 {
	relays := map[int]int{} // pcb -> relay SoC
	for _, m := range members {
		p := c.PCBOf(m)
		if _, ok := relays[p]; !ok || m == root {
			relays[p] = m
		}
	}
	relays[c.PCBOf(root)] = root

	var up1, up2, down1, down2 []*simnet.Flow
	for _, m := range members {
		r := relays[c.PCBOf(m)]
		if m == r {
			continue
		}
		up1 = append(up1, c.Flow("tree.leaf-up", m, r, bytes, 0))
		down2 = append(down2, c.Flow("tree.leaf-down", r, m, bytes, 0))
	}
	for _, r := range relays {
		if r == root {
			continue
		}
		up2 = append(up2, c.Flow("tree.relay-up", r, root, bytes, 0))
		down1 = append(down1, c.Flow("tree.relay-down", root, r, bytes, 0))
	}
	t := c.Simulate(up1) + c.Simulate(up2) + c.Simulate(down1) + c.Simulate(down2)
	return t + cluster.SyncStartupPerSoC*float64(len(relays))
}

// BroadcastTime returns the simulated time to send `bytes` from src to
// every destination concurrently (model/data dispatch by the global
// scheduler).
func BroadcastTime(c *cluster.Cluster, src int, dsts []int, bytes float64) float64 {
	return (*Memo)(nil).BroadcastTime(c, src, dsts, bytes)
}

// BroadcastTime is the package-level function, remembered.
func (m *Memo) BroadcastTime(c *cluster.Cluster, src int, dsts []int, bytes float64) float64 {
	return m.window(c, 'b', bytes, [][]int{{src}, dsts}, len(dsts), func(fs *flowSet) {
		for _, d := range dsts {
			if d != src {
				fs.appendFlow(c, "bcast", src, d, bytes, 0)
			}
		}
	})
}

// --- Math half -------------------------------------------------------

// AverageInPlace overwrites every worker's tensor set with the
// element-wise mean across workers — the semantic result of an
// all-reduce-average. sets[w][k] is worker w's k-th tensor.
func AverageInPlace(sets [][]*tensor.Tensor) {
	if len(sets) == 0 {
		return
	}
	k := len(sets[0])
	inv := 1 / float32(len(sets))
	for ti := 0; ti < k; ti++ {
		acc := tensor.Scratch.GetTensor(sets[0][ti].Shape...)
		for _, set := range sets {
			if len(set) != k {
				panic("collective: ragged tensor sets")
			}
			tensor.AddInPlace(acc, set[ti])
		}
		tensor.Scale(inv, acc)
		for _, set := range sets {
			set[ti].CopyFrom(acc)
		}
		tensor.Scratch.ReleaseTensor(acc)
	}
}

// WeightedAverageInPlace overwrites every worker's tensor set with the
// weighted mean; weights must sum to a positive value (they are
// normalized internally). FedAvg uses sample-count weights.
func WeightedAverageInPlace(sets [][]*tensor.Tensor, weights []float64) {
	if len(sets) == 0 {
		return
	}
	if len(weights) != len(sets) {
		panic("collective: weights/sets length mismatch")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("collective: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("collective: weights sum to zero")
	}
	k := len(sets[0])
	for ti := 0; ti < k; ti++ {
		acc := tensor.Scratch.GetTensor(sets[0][ti].Shape...)
		for wi, set := range sets {
			tensor.Axpy(float32(weights[wi]/total), set[ti], acc)
		}
		for _, set := range sets {
			set[ti].CopyFrom(acc)
		}
		tensor.Scratch.ReleaseTensor(acc)
	}
}

// contentionPenalty models the goodput collapse when flows from
// *different* collectives share a saturated link: max-min fair sharing
// is the fluid optimum, but real TCP rings on shallow-buffer edge
// switches suffer incast-style losses and retransmissions once
// unrelated many-to-many patterns collide. The paper's planning stage
// exists precisely to avoid this regime ("different CGs' intra-group
// synchronization communicates separately in sequence to avoid network
// contention"), and its Fig. 13 measures a 1.69-1.78x win from doing
// so.
const contentionPenalty = 1.8

// ConcurrentRingTime returns the simulated wall time of several ring
// all-reduces (one per group, same payload) running simultaneously —
// exactly the situation SoCFlow's communication groups are designed
// around: groups in one CG must not contend, and the planner uses this
// primitive to price a CG window (or the contention when planning is
// disabled). If the groups do contend — flows from two collectives
// share a link — the contended portion pays contentionPenalty.
func ConcurrentRingTime(c *cluster.Cluster, groups [][]int, bytes float64) float64 {
	return (*Memo)(nil).ConcurrentRingTime(c, groups, bytes)
}

// ConcurrentRingTime is the package-level function, remembered: the
// solo rings cost one simulation per distinct group shape, the combined
// window one per distinct shape of the whole group list.
func (m *Memo) ConcurrentRingTime(c *cluster.Cluster, groups [][]int, bytes float64) float64 {
	var overhead, solo float64
	for _, members := range groups {
		o := ringOverhead(c, members, bytes)
		overhead = max(overhead, o)
		solo = max(solo, m.ringWindow(c, bytes, members)+o)
	}
	combined := m.ringWindow(c, bytes, groups...) + overhead
	// Contention detected: the combined makespan exceeds the slowest
	// solo collective, meaning some link is shared across groups. The
	// fluid result is the lower bound; real incast pushes it up.
	if combined > solo*1.001 {
		return solo + (combined-solo)*contentionPenalty
	}
	return combined
}
