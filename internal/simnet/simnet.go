// Package simnet is a flow-level discrete-event network simulator.
//
// SoCFlow's entire systems argument hinges on where bytes contend: tens
// of SoCs share 1 Gbps PCB NICs, and the choice of topology (ring vs
// parameter server), mapping (which logical group lands on which PCB),
// and schedule (which groups synchronize simultaneously) decides how
// long synchronization takes. simnet models exactly that: directed
// links with finite bandwidth, flows that traverse link paths, and
// max-min fair bandwidth sharing recomputed at every flow start/finish
// event (progressive filling). This is the standard flow-level
// abstraction used by cluster simulators; packet-level detail would add
// cost without changing any of the paper's conclusions.
package simnet

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Link is a directed, fixed-capacity network resource.
type Link struct {
	// Name identifies the link in debug output.
	Name string
	// Bandwidth is the capacity in bytes per second.
	Bandwidth float64
	// Latency is the one-way propagation delay in seconds, charged once
	// per flow crossing the link.
	Latency float64
}

// NewLink creates a link with the given capacity in bytes/second,
// which must be positive and finite.
func NewLink(name string, bandwidth, latency float64) *Link {
	checkBandwidth(name, bandwidth)
	return &Link{Name: name, Bandwidth: bandwidth, Latency: latency}
}

// checkBandwidth panics, naming the link, unless bw is a positive
// finite capacity. NaN would otherwise pass a bw <= 0 test and +Inf
// never lose a bottleneck comparison; either ends in a zero-rate
// deadlock that names no link.
func checkBandwidth(name string, bw float64) {
	if !(bw > 0 && bw <= math.MaxFloat64) {
		panic(fmt.Sprintf("simnet: link %q with bandwidth %v, want positive and finite", name, bw))
	}
}

// Flow is one transfer traversing a path of links.
type Flow struct {
	// Name identifies the flow in results.
	Name string
	// Path lists the links the flow traverses in order. An empty path
	// means a loopback/intra-SoC transfer, which completes after
	// StartAt immediately (plus nothing); callers model on-chip copies
	// separately.
	Path []*Link
	// Bytes is the payload size.
	Bytes float64
	// StartAt is the simulation time at which the flow becomes active.
	StartAt float64

	// Results, populated by Simulate.
	FinishAt float64

	remaining float64
	rate      float64
	lo, hi    int32 // this flow's slots in the running Simulator's paths
	started   bool
	done      bool
	frozen    bool
}

// latency returns the total path propagation delay.
func (f *Flow) latency() float64 {
	var l float64
	for _, lk := range f.Path {
		l += lk.Latency
	}
	return l
}

// linkState is one link's water-filling scratch: a slot in the
// Simulator's flat state table, reset lazily per fair-share round via
// generation stamping.
type linkState struct {
	gen      uint64
	bw       float64 // Link.Bandwidth as of the Simulate call that resolved the slot
	cap      float64
	unfrozen int // path crossings by flows not yet frozen this round
	flows    []*Flow
}

// Simulator runs flow simulations while reusing all per-event scratch
// (link states, resolved paths, the active-flow list, the touched-link
// list) across events and across Simulate calls. A planner sweeping
// thousands of candidate placements holds one Simulator and pays zero
// steady-state allocations per call; the package-level Simulate draws
// from a pool and has the same property.
//
// A Simulator is not safe for concurrent use; use one per goroutine or
// the package-level functions (which are).
type Simulator struct {
	slots  map[*Link]int32 // link -> index into states; touched once per path hop per call
	states []linkState
	paths  []int32 // every flow's Path as slots; flow f owns paths[f.lo:f.hi]
	links  []int32 // slots touched in the current fair-share round
	active []*Flow
	gen    uint64
}

// NewSimulator returns an empty reusable simulator.
func NewSimulator() *Simulator {
	return &Simulator{slots: make(map[*Link]int32)}
}

// maxRetainedLinks bounds the slot table so a long-lived pooled
// Simulator cannot pin link objects from arbitrarily many dead
// topologies.
const maxRetainedLinks = 4096

// resolve maps every flow's Path to link-state slots, once per Simulate
// call, so the event loop and fairShare index slices instead of hashing
// a *Link per hop per water-filling round.
func (s *Simulator) resolve(flows []*Flow) {
	if len(s.slots) > maxRetainedLinks {
		s.slots, s.states = make(map[*Link]int32), nil
	}
	s.paths = s.paths[:0]
	for _, f := range flows {
		f.lo = int32(len(s.paths))
		for _, l := range f.Path {
			slot, ok := s.slots[l]
			if !ok {
				slot = int32(len(s.states))
				s.slots[l] = slot
				s.states = append(s.states, linkState{})
			}
			checkBandwidth(l.Name, l.Bandwidth) // Bandwidth may have changed since NewLink
			s.states[slot].bw = l.Bandwidth
			s.paths = append(s.paths, slot)
		}
		f.hi = int32(len(s.paths))
	}
}

// Simulate runs progressive filling over the given flows and returns
// the makespan (time at which the last flow completes). Each flow's
// FinishAt is populated. Flows with zero bytes finish at StartAt plus
// path latency.
//
// The algorithm alternates between (1) computing the max-min fair rate
// allocation for the currently active flows and (2) advancing time to
// the next flow start or finish. Complexity is O(E · (F·L)) for E
// events, fine for the fleet sizes here (hundreds of flows). The call
// is charged to the process aggregate (SnapshotStats).
func (s *Simulator) Simulate(flows []*Flow) float64 {
	makespan := s.run(flows)
	record(nil, flows, makespan)
	return makespan
}

// run is Simulate without the counters.
func (s *Simulator) run(flows []*Flow) float64 {
	s.resolve(flows)
	for _, f := range flows {
		f.remaining = f.Bytes
		f.started = false
		f.done = false
		f.FinishAt = 0
	}
	now := 0.0
	makespan := 0.0
	pending := len(flows)

	for pending > 0 {
		// Activate flows whose start time has arrived.
		nextStart := math.Inf(1)
		active := s.active[:0]
		for _, f := range flows {
			if f.done {
				continue
			}
			if !f.started {
				if f.StartAt <= now+1e-12 {
					f.started = true
				} else if f.StartAt < nextStart {
					nextStart = f.StartAt
				}
			}
			if f.started {
				active = append(active, f)
			}
		}
		s.active = active

		// Retire exhausted flows, zero-byte flows, and loopback flows
		// (empty path: on-chip transfers are modeled separately)
		// immediately.
		retired := false
		for _, f := range active {
			if f.remaining <= 1e-9 || len(f.Path) == 0 {
				f.done = true
				f.FinishAt = now + f.latency()
				if f.FinishAt > makespan {
					makespan = f.FinishAt
				}
				pending--
				retired = true
			}
		}
		if retired {
			continue
		}

		if len(active) == 0 {
			if math.IsInf(nextStart, 1) {
				break // nothing active and nothing pending: all done
			}
			now = nextStart
			continue
		}

		s.fairShare(active)

		// Time until the first active flow finishes at current rates.
		dt := math.Inf(1)
		for _, f := range active {
			if f.rate > 0 {
				if t := f.remaining / f.rate; t < dt {
					dt = t
				}
			}
		}
		// Or until a new flow starts, whichever comes first.
		if nextStart-now < dt {
			dt = nextStart - now
		}
		if math.IsInf(dt, 1) {
			panic("simnet: deadlock — active flows with zero rate and no pending starts")
		}

		for _, f := range active {
			f.remaining -= f.rate * dt
		}
		now += dt
	}
	return makespan
}

// fairShare computes the max-min fair rate for each active flow via
// water-filling: repeatedly find the most-constrained link (smallest
// per-flow share), freeze its flows at that share, remove their demand,
// and continue. Every active flow has a non-empty path (Simulate
// retires loopbacks first). Scratch is generation-stamped: a link's
// state is reset lazily the first time the current round touches it, so
// nothing is reallocated between events.
func (s *Simulator) fairShare(active []*Flow) {
	s.gen++
	s.links = s.links[:0]
	for _, f := range active {
		f.rate = 0
		f.frozen = false
		for _, slot := range s.paths[f.lo:f.hi] {
			st := &s.states[slot]
			if st.gen != s.gen {
				st.gen = s.gen
				st.cap = st.bw
				st.unfrozen = 0
				st.flows = st.flows[:0]
				s.links = append(s.links, slot)
			}
			st.unfrozen++
			st.flows = append(st.flows, f)
		}
	}

	for nFrozen := 0; nFrozen < len(active); {
		// Find bottleneck link: min cap/unfrozen-count. Scanning the
		// touched slots in first-touch order with a strict < keeps
		// tie-breaking deterministic; links whose flows are all frozen
		// are dropped from the scan in passing, order preserved.
		var bottleneck *linkState
		best := math.Inf(1)
		live := s.links[:0]
		for _, slot := range s.links {
			st := &s.states[slot]
			if st.unfrozen == 0 {
				continue
			}
			live = append(live, slot)
			if share := st.cap / float64(st.unfrozen); share < best {
				best = share
				bottleneck = st
			}
		}
		s.links = live
		if bottleneck == nil {
			break
		}
		// Freeze that link's unfrozen flows at the bottleneck share and
		// charge their rate against every link they cross.
		for _, f := range bottleneck.flows {
			if f.frozen {
				continue
			}
			f.rate = best
			f.frozen = true
			nFrozen++
			for _, slot := range s.paths[f.lo:f.hi] {
				st := &s.states[slot]
				st.unfrozen--
				st.cap -= best
				if st.cap < 0 {
					st.cap = 0
				}
			}
		}
	}
}

// simPool backs the package-level Simulate so concurrent callers (the
// collective layer prices rings from runtime workers) each borrow a
// private Simulator without allocating one per call.
var simPool = sync.Pool{New: func() any { return NewSimulator() }}

// Simulate runs progressive filling over the given flows using a pooled
// reusable Simulator. See Simulator.Simulate.
func Simulate(flows []*Flow) float64 { return (*Counters)(nil).Simulate(flows) }

// Simulate is the package-level Simulate charged to c as well as to the
// process aggregate; a nil c charges the aggregate alone.
func (c *Counters) Simulate(flows []*Flow) float64 {
	s := simPool.Get().(*Simulator)
	ms := s.run(flows)
	simPool.Put(s)
	record(c, flows, ms)
	return ms
}

// TransferTime returns the completion time of a single flow of the
// given size over the path, with no competition.
func TransferTime(bytes float64, path ...*Link) float64 {
	f := Flow{Name: "single", Path: path, Bytes: bytes}
	return Simulate([]*Flow{&f})
}

// Makespan is a convenience that simulates the flows and returns both
// the makespan and the sorted per-flow finish times.
func Makespan(flows []*Flow) (float64, []float64) {
	ms := Simulate(flows)
	times := make([]float64, len(flows))
	for i, f := range flows {
		times[i] = f.FinishAt
	}
	sort.Float64s(times)
	return ms, times
}
