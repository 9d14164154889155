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
	"math/bits"
	"sort"
	"sync"
	"unsafe"
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
	if !validBandwidth(bw) {
		panic(fmt.Sprintf("simnet: link %q with bandwidth %v, want positive and finite", name, bw))
	}
}

func validBandwidth(bw float64) bool { return bw > 0 && bw <= math.MaxFloat64 }

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
	comp      int32 // component label while a share is labelling, else -1
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

// linkState is one link's slot in the Simulator's flat state table:
// the active flows crossing it, kept across events, and its
// water-filling scratch, reset lazily per share via generation
// stamping.
type linkState struct {
	gen      uint64
	bw       float64 // Link.Bandwidth as of the Simulate call that resolved the slot
	cap      float64
	unfrozen int32   // path crossings by flows not yet frozen this share
	comp     int32   // component label while a share is labelling, else -1
	at       int32   // the link's entry in the Simulator's table
	dirty    bool    // a flow crossing the link started or retired since the last share
	flows    []*Flow // one entry per crossing by a started flow, in no particular order
}

// tableEntry is one bucket of the Simulator's link → slot table.
type tableEntry struct {
	link *Link
	slot int32
}

// component is one link-connected set of active flows that a share
// re-fills: its links are order[start:end], in first-touch order.
type component struct {
	start, end, flows, hops int
}

// Simulator runs flow simulations while reusing all per-event scratch
// (link states, resolved paths, the active-flow list, the component
// tables) across events and across Simulate calls. A planner sweeping
// thousands of candidate placements holds one Simulator and pays zero
// steady-state allocations per call; the package-level Simulate draws
// from a pool and has the same property.
//
// A Simulator is not safe for concurrent use; use one per goroutine or
// the package-level functions (which are).
type Simulator struct {
	table  []tableEntry // open-addressed link -> slot, empty between calls
	states []linkState
	paths  []int32 // every flow's Path as slots; flow f owns paths[f.lo:f.hi]
	dirty  []int32 // slots whose flow set changed since the last share
	order  []int32 // the re-shared components' links, grouped by component
	stack  []int32 // the component walk's frontier
	comps  []component
	active []*Flow
	gen    uint64
}

// NewSimulator returns an empty reusable simulator.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// resolve maps every flow's Path to link-state slots, once per Simulate
// call, so the event loop and fairShare index slices instead of looking
// a *Link up per hop per water-filling round. The slots number the
// links of this call alone: the table is sized for the call's hops and
// emptied again before resolve returns, so it keeps no link between
// calls and the Simulator has as many slots as the call has links. A
// link hashes by its address, as a map keyed by *Link does; nothing is
// ever ordered by slot number.
func (s *Simulator) resolve(flows []*Flow) {
	hops := 0
	for _, f := range flows {
		hops += len(f.Path)
	}
	shift := 64 - bits.Len(uint(2*hops)) // at most half the buckets fill
	mask := uint64(1)<<(64-shift) - 1
	if uint64(len(s.table)) <= mask {
		s.table = make([]tableEntry, mask+1)
	}
	s.states = s.states[:0]
	s.paths = s.paths[:0]
	for _, f := range flows {
		f.lo = int32(len(s.paths))
		for _, l := range f.Path {
			// Multiplicative hashing: the top bits of address × 2⁶⁴/φ.
			h := uint64(uintptr(unsafe.Pointer(l))) * 0x9E3779B97F4A7C15 >> shift
			for s.table[h].link != nil && s.table[h].link != l {
				h = (h + 1) & mask
			}
			e := &s.table[h]
			if e.link == nil {
				e.link, e.slot = l, int32(len(s.states))
				if len(s.states) < cap(s.states) {
					s.states = s.states[:e.slot+1]
				} else {
					s.states = append(s.states, linkState{})
				}
				// gen, cap and unfrozen are set when a share first
				// touches the slot; every stale gen is below the next.
				st := &s.states[e.slot]
				st.bw, st.comp, st.at, st.dirty = l.Bandwidth, -1, int32(h), false
				st.flows = st.flows[:0]
			}
			s.paths = append(s.paths, e.slot)
		}
		f.hi = int32(len(s.paths))
	}
	// Empty the table, then refuse a Bandwidth changed since NewLink:
	// a panic must not leave a link in the table for the next call.
	var bad *Link
	for i := range s.states {
		e := &s.table[s.states[i].at]
		if bad == nil && !validBandwidth(e.link.Bandwidth) {
			bad = e.link
		}
		*e = tableEntry{}
	}
	if bad != nil {
		checkBandwidth(bad.Name, bad.Bandwidth)
	}
}

// Simulate runs progressive filling over the given flows and returns
// the makespan (time at which the last flow completes). Each flow's
// FinishAt is populated. Flows with zero bytes finish at StartAt plus
// path latency.
//
// The algorithm alternates between (1) computing the max-min fair rate
// allocation for the currently active flows and (2) advancing time to
// the next flow start or finish. Only the link-connected components
// that a start or a finish touched are re-shared; every other flow
// keeps the rate it has, which is what a full re-share would give it
// (see fairShare). The call is charged to the process aggregate
// (SnapshotStats).
func (s *Simulator) Simulate(flows []*Flow) float64 {
	makespan := s.run(flows)
	record(nil, flows, makespan)
	return makespan
}

// run is Simulate without the counters.
func (s *Simulator) run(flows []*Flow) float64 {
	s.resolve(flows)
	s.dirty = s.dirty[:0]
	for _, f := range flows {
		f.remaining = f.Bytes
		f.comp = -1
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
					s.join(f)
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
				s.touch(f)
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

// join adds a starting flow to its links' flow lists.
func (s *Simulator) join(f *Flow) {
	for _, slot := range s.paths[f.lo:f.hi] {
		s.states[slot].flows = append(s.states[slot].flows, f)
	}
	s.touch(f)
}

// touch marks a starting or retiring flow's links dirty: the next
// share re-fills their components, and drops retired flows from their
// lists.
func (s *Simulator) touch(f *Flow) {
	for _, slot := range s.paths[f.lo:f.hi] {
		if st := &s.states[slot]; !st.dirty {
			st.dirty = true
			s.dirty = append(s.dirty, slot)
		}
	}
}

// fairShare computes the max-min fair rate of each active flow in the
// link-connected components that hold a dirty link, one water-filling
// per component; every other flow keeps its rate. Every active flow
// has a non-empty path (Simulate retires loopbacks first).
//
// Why that is the full re-share's answer, bit for bit: water-filling
// over link-disjoint components decomposes exactly. A round in
// component A reads and writes only A's links and flows, and A's
// bottleneck is the smallest share among A's own links, ties going to
// the first touched; a round in another component leaves that minimum
// unchanged. So A performs the same float operations in the same
// order whether the components fill interleaved, one after another, or
// A alone. A component without a dirty link holds exactly the flows it
// held at the last share: a start dirties its own links, and a retire
// dirties a link of every piece it splits off (the link it shared with
// the piece). Its rates are therefore the ones a re-share would
// recompute.
func (s *Simulator) fairShare(active []*Flow) {
	// Only a dirty link can hold a retired flow: drop them first. A
	// dirty link crossed as often as there are active flows is, but for
	// a flow that crosses it twice, crossed by every one: then they are
	// all one component and the walk is skipped. Filling all active
	// flows as one is exact whatever the components (see above), so
	// the test need not be.
	whole := false
	for _, slot := range s.dirty {
		st := &s.states[slot]
		st.dirty = false
		live := st.flows[:0]
		for _, f := range st.flows {
			if !f.done {
				live = append(live, f)
			}
		}
		if len(live) < len(st.flows) {
			clear(st.flows[len(live):])
			st.flows = live
		}
		whole = whole || len(live) >= len(active)
	}

	// Otherwise label the components holding a dirty link by walking
	// the link–flow graph from each (a dirty link left without flows
	// belongs to none).
	s.comps = s.comps[:0]
	hops := len(s.paths)
	if whole {
		s.comps = append(s.comps, component{flows: len(active), hops: hops})
	} else {
		hops = 0
		for _, slot := range s.dirty {
			if st := &s.states[slot]; st.comp < 0 && len(st.flows) > 0 {
				hops += s.walk(slot)
			}
		}
	}
	s.dirty = s.dirty[:0]
	if len(s.comps) == 0 {
		return
	}

	// Lay each component's links out in first-touch order — flow order,
	// then path order, as a share over all active flows would meet
	// them — and reset their water-filling scratch. A component's
	// segment has room for its hops; labels are cleared as they are
	// read.
	if cap(s.order) < hops {
		s.order = make([]int32, hops)
	}
	s.order = s.order[:hops]
	at := 0
	for i := range s.comps {
		c := &s.comps[i]
		c.start, c.end = at, at
		at += c.hops
	}
	s.gen++
	for _, f := range active {
		var c *component
		if whole {
			c = &s.comps[0]
		} else if f.comp >= 0 {
			c = &s.comps[f.comp]
			f.comp = -1
		} else {
			continue
		}
		f.frozen = false
		for _, slot := range s.paths[f.lo:f.hi] {
			st := &s.states[slot]
			if st.gen != s.gen {
				st.gen = s.gen
				st.cap = st.bw
				st.unfrozen = int32(len(st.flows))
				st.comp = -1
				s.order[c.end] = slot
				c.end++
			}
		}
	}
	for _, c := range s.comps {
		s.fill(s.order[c.start:c.end], c.flows)
	}
}

// walk labels the component holding slot with the next component
// number, records it with its flow and hop counts, and returns the hop
// count.
func (s *Simulator) walk(slot int32) int {
	c := component{}
	label := int32(len(s.comps))
	s.states[slot].comp = label
	stack := append(s.stack[:0], slot)
	for len(stack) > 0 {
		slot, stack = stack[len(stack)-1], stack[:len(stack)-1]
		for _, f := range s.states[slot].flows {
			if f.comp >= 0 {
				continue
			}
			f.comp = label
			c.flows++
			c.hops += int(f.hi - f.lo)
			for _, l := range s.paths[f.lo:f.hi] {
				if st := &s.states[l]; st.comp < 0 {
					st.comp = label
					stack = append(stack, l)
				}
			}
		}
	}
	s.stack = stack
	s.comps = append(s.comps, c)
	return c.hops
}

// fill water-fills one component of n flows over its links, given in
// first-touch order: repeatedly find the most-constrained link
// (smallest per-flow share), freeze its flows at that share, remove
// their demand, and continue.
func (s *Simulator) fill(links []int32, n int) {
	for nFrozen := 0; nFrozen < n; {
		// Find bottleneck link: min cap/unfrozen-count. Scanning the
		// links in first-touch order with a strict < keeps
		// tie-breaking deterministic; links whose flows are all frozen
		// are dropped from the scan in passing, order preserved.
		var bottleneck *linkState
		best := math.Inf(1)
		live := links[:0]
		for _, slot := range links {
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
		links = live
		if bottleneck == nil {
			break
		}
		// Freeze that link's unfrozen flows at the bottleneck share and
		// charge their rate against every link they cross. Each charges
		// the same share, so the order of the (unordered) list changes
		// no bit.
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
