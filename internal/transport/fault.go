package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"socflow/internal/tensor"
)

// Fault injection: a seeded, deterministic FaultPlan describes worker
// crashes, link drops, and stragglers at chosen (epoch, iteration)
// points, and WithFaults applies the plan to any Mesh. The SoC-Cluster
// premise is that training shares chips with live user traffic (§2.2):
// SoCs get preempted mid-round, links stall, thermal governors turn
// chips into stragglers. The plan is the experiment's script, not a
// membership oracle: it decides when a fault fires, and a node may ask
// it only about itself (CrashedAt — "was I told to yield?"). Peers learn
// of a crash the way they would on real hardware, through failed
// transfers or, on the elastic tracks, missed heartbeats.

// ErrInjectedCrash marks transport errors caused by an injected worker
// crash, so tests and the runtime can tell scripted faults from real
// transport failures with errors.Is.
var ErrInjectedCrash = errors.New("transport: injected crash")

// ErrInjectedLinkDrop marks errors from an injected link failure.
var ErrInjectedLinkDrop = errors.New("transport: injected link drop")

// IterEpochEnd is the iteration value of the epoch-boundary clock
// point: every per-iteration trigger of epoch e orders before
// (e, IterEpochEnd), which in turn orders before (e+1, 0). Using one
// sentinel for "end of epoch e" keeps liveness decisions identical
// across groups whose shards yield different iteration counts.
const IterEpochEnd = 1<<31 - 1

// FaultKind enumerates injectable failures.
type FaultKind uint8

const (
	// FaultCrash kills a node from its trigger point on: every later
	// Send/Recv by the node fails with ErrInjectedCrash. A crash with
	// an Until point clears there — the node's endpoint works again —
	// modelling a preemption window instead of a permanent loss.
	FaultCrash FaultKind = iota
	// FaultLinkDrop severs the directed link Node->Peer from the
	// trigger point on (optionally until the event's Until point).
	FaultLinkDrop
	// FaultStraggle delays each of the node's sends by Delay during
	// exactly the trigger iteration — a transient slow SoC.
	FaultStraggle
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultLinkDrop:
		return "linkdrop"
	case FaultStraggle:
		return "straggle"
	}
	return fmt.Sprintf("faultkind(%d)", uint8(k))
}

// FaultEvent is one scripted failure.
type FaultEvent struct {
	Kind FaultKind
	// Node is the failing node (crash, straggle) or the link source
	// (link drop).
	Node int
	// Peer is the link target; only meaningful for FaultLinkDrop.
	Peer int
	// Epoch and Iter locate the trigger point. Crash and link-drop
	// events are in effect at every point >= (Epoch, Iter) in
	// lexicographic order; straggle fires only at exactly that point.
	Epoch, Iter int
	// UntilEpoch and UntilIter optionally bound a crash or link drop:
	// the fault is active on [(Epoch,Iter), (UntilEpoch,UntilIter)) and
	// clears at the until point — a preempted SoC handed back when the
	// co-located user traffic ebbs. Both zero means the fault is
	// permanent, which keeps every pre-existing plan's semantics.
	UntilEpoch, UntilIter int
	// Delay is the injected per-send latency of a straggle event.
	Delay time.Duration
}

// activeAt reports whether a crash/link-drop event is in effect at the
// clock point now.
func (ev *FaultEvent) activeAt(now uint64) bool {
	if point(ev.Epoch, ev.Iter) > now {
		return false
	}
	if ev.UntilEpoch != 0 || ev.UntilIter != 0 {
		if point(ev.UntilEpoch, ev.UntilIter) <= now {
			return false
		}
	}
	return true
}

// FaultPlan is an immutable, shared fault script. A nil plan injects
// nothing.
type FaultPlan struct {
	Events []FaultEvent
}

// RandomCrashPlan builds a deterministic plan that crashes `crashes`
// distinct nodes of an n-node mesh at the start of seeded epochs.
// Epoch 0 is spared when the budget allows, so every run keeps a
// fault-free baseline epoch.
func RandomCrashPlan(seed uint64, n, epochs, crashes int) *FaultPlan {
	if crashes > n {
		crashes = n
	}
	p := &FaultPlan{}
	if crashes <= 0 || epochs <= 0 {
		return p
	}
	r := tensor.NewRNG(seed)
	victims := r.Perm(n)[:crashes]
	for _, v := range victims {
		epoch := 0
		if epochs > 1 {
			epoch = 1 + r.Intn(epochs-1)
		}
		p.Events = append(p.Events, FaultEvent{Kind: FaultCrash, Node: v, Epoch: epoch})
	}
	return p
}

// point totally orders (epoch, iter) pairs.
func point(epoch, iter int) uint64 { return uint64(epoch)<<32 | uint64(uint32(iter)) }

// CrashedAt reports whether the node is down at (epoch, iter): some
// crash event's window covers the point. Permanent crashes (no until
// point) cover everything from their trigger on.
func (p *FaultPlan) CrashedAt(node, epoch, iter int) bool {
	if p == nil {
		return false
	}
	now := point(epoch, iter)
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Kind == FaultCrash && ev.Node == node && ev.activeAt(now) {
			return true
		}
	}
	return false
}

// Crashes returns how many distinct nodes the plan ever crashes.
func (p *FaultPlan) Crashes() int {
	if p == nil {
		return 0
	}
	seen := map[int]bool{}
	for _, ev := range p.Events {
		if ev.Kind == FaultCrash {
			seen[ev.Node] = true
		}
	}
	return len(seen)
}

// FaultTicker is implemented by the nodes of a FaultyMesh. The runtime
// ticks each worker's clock at every iteration and epoch boundary;
// fault triggers are evaluated against the last tick.
type FaultTicker interface {
	TickFault(epoch, iter int)
}

// FaultyMesh decorates any Mesh with a FaultPlan. Nodes are wrapped
// once and cached so their fault clocks persist across Node calls.
type FaultyMesh struct {
	inner Mesh
	plan  *FaultPlan
	nodes []*faultyNode
}

// WithFaults wraps mesh so plan's events fire against it. Closing the
// FaultyMesh closes the underlying mesh.
func WithFaults(mesh Mesh, plan *FaultPlan) *FaultyMesh {
	fm := &FaultyMesh{inner: mesh, plan: plan, nodes: make([]*faultyNode, mesh.Size())}
	for i := range fm.nodes {
		fm.nodes[i] = &faultyNode{Node: mesh.Node(i), plan: plan}
	}
	return fm
}

// Plan returns the plan the mesh injects.
func (m *FaultyMesh) Plan() *FaultPlan { return m.plan }

// Size implements Mesh.
func (m *FaultyMesh) Size() int { return m.inner.Size() }

// Node implements Mesh.
func (m *FaultyMesh) Node(i int) Node { return m.nodes[i] }

// Close implements Mesh.
func (m *FaultyMesh) Close() error { return m.inner.Close() }

type faultyNode struct {
	Node  // the wrapped endpoint; ID and Size promote unchanged
	plan  *FaultPlan
	clock atomic.Uint64 // point(epoch, iter) of the last tick
}

// TickFault implements FaultTicker.
func (n *faultyNode) TickFault(epoch, iter int) { n.clock.Store(point(epoch, iter)) }

func (n *faultyNode) at() (int, int) {
	c := n.clock.Load()
	return int(c >> 32), int(uint32(c))
}

func (n *faultyNode) Send(to int, payload []byte) error {
	epoch, iter := n.at()
	id := n.ID()
	now := point(epoch, iter)
	for i := range n.plan.Events {
		ev := &n.plan.Events[i]
		switch ev.Kind {
		case FaultCrash:
			if ev.Node == id && ev.activeAt(now) {
				return fmt.Errorf("%w: node %d at epoch %d iter %d", ErrInjectedCrash, id, ev.Epoch, ev.Iter)
			}
		case FaultLinkDrop:
			if ev.Node == id && ev.Peer == to && ev.activeAt(now) {
				return fmt.Errorf("%w: link %d->%d at epoch %d iter %d", ErrInjectedLinkDrop, id, to, ev.Epoch, ev.Iter)
			}
		case FaultStraggle:
			if ev.Node == id && ev.Epoch == epoch && ev.Iter == iter && ev.Delay > 0 {
				time.Sleep(ev.Delay)
			}
		}
	}
	return n.Node.Send(to, payload)
}

func (n *faultyNode) Recv(from int) ([]byte, error) {
	epoch, iter := n.at()
	id := n.ID()
	now := point(epoch, iter)
	for i := range n.plan.Events {
		ev := &n.plan.Events[i]
		switch ev.Kind {
		case FaultCrash:
			if ev.Node == id && ev.activeAt(now) {
				return nil, fmt.Errorf("%w: node %d at epoch %d iter %d", ErrInjectedCrash, id, ev.Epoch, ev.Iter)
			}
		case FaultLinkDrop:
			if ev.Node == from && ev.Peer == id && ev.activeAt(now) {
				return nil, fmt.Errorf("%w: link %d->%d at epoch %d iter %d", ErrInjectedLinkDrop, from, id, ev.Epoch, ev.Iter)
			}
		}
	}
	return n.Node.Recv(from)
}
