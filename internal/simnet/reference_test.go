package simnet

import (
	"math"
	"math/rand"
	"testing"
)

// referenceSimulate is Simulate as it was written before paths were
// resolved to slots: link state looked up in a map once per hop per
// water-filling round, unfrozen flows recounted per link per round. It
// is kept as the oracle the slot-resolved simulator must match bit for
// bit — FinishAt of every flow, not just the makespan.
func referenceSimulate(flows []*Flow) float64 {
	type state struct {
		gen   uint64
		cap   float64
		flows []*Flow
	}
	states := map[*Link]*state{}
	var gen uint64
	fairShare := func(active []*Flow) {
		gen++
		var links []*Link
		nFrozen := 0
		for _, f := range active {
			f.rate, f.frozen = 0, false
			for _, l := range f.Path {
				st := states[l]
				if st == nil {
					st = &state{}
					states[l] = st
				}
				if st.gen != gen {
					st.gen, st.cap, st.flows = gen, l.Bandwidth, st.flows[:0]
					links = append(links, l)
				}
				st.flows = append(st.flows, f)
			}
		}
		for nFrozen < len(active) {
			var bottleneck *state
			best := math.Inf(1)
			for _, l := range links {
				st := states[l]
				n := 0
				for _, f := range st.flows {
					if !f.frozen {
						n++
					}
				}
				if n == 0 {
					continue
				}
				if share := st.cap / float64(n); share < best {
					best, bottleneck = share, st
				}
			}
			if bottleneck == nil {
				break
			}
			for _, f := range bottleneck.flows {
				if f.frozen {
					continue
				}
				f.rate, f.frozen = best, true
				nFrozen++
				for _, l := range f.Path {
					st := states[l]
					st.cap -= best
					if st.cap < 0 {
						st.cap = 0
					}
				}
			}
		}
	}

	for _, f := range flows {
		f.remaining, f.started, f.done, f.FinishAt = f.Bytes, false, false, 0
	}
	now, makespan := 0.0, 0.0
	for pending := len(flows); pending > 0; {
		nextStart := math.Inf(1)
		var active []*Flow
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
		retired := false
		for _, f := range active {
			if f.remaining <= 1e-9 || len(f.Path) == 0 {
				f.done = true
				f.FinishAt = now + f.latency()
				makespan = math.Max(makespan, f.FinishAt)
				pending--
				retired = true
			}
		}
		if retired {
			continue
		}
		if len(active) == 0 {
			if math.IsInf(nextStart, 1) {
				break
			}
			now = nextStart
			continue
		}
		fairShare(active)
		dt := math.Inf(1)
		for _, f := range active {
			if f.rate > 0 {
				dt = math.Min(dt, f.remaining/f.rate)
			}
		}
		if nextStart-now < dt {
			dt = nextStart - now
		}
		for _, f := range active {
			f.remaining -= f.rate * dt
		}
		now += dt
	}
	return makespan
}

// twin builds the same flow set twice over the same links, so one copy
// can go through the reference and one through the simulator under test.
func twin(build func() []*Flow) (a, b []*Flow) {
	a = build()
	b = make([]*Flow, len(a))
	for i, f := range a {
		c := *f
		b[i] = &c
	}
	return a, b
}

// randomTopology is a two-tier fabric like the cluster's — per-node
// up/down links, per-board uplinks, one core — with random capacities,
// random staggered starts, and a sprinkling of zero-byte, loopback and
// repeated-link flows.
func randomTopology(rng *rand.Rand) []*Flow {
	return fabric(rng, 4+rng.Intn(20), 1+rng.Intn(5), 40, 2500, []float64{50, 125, 125, 1000}, []float64{0, 0.75, 1.5, 2.25})
}

// fabric is randomTopology at a chosen size: up to maxFlows flows, a
// core of the given capacity, every other link's capacity drawn from
// caps and every start from starts.
func fabric(rng *rand.Rand, nodes, boards, maxFlows int, core float64, caps, starts []float64) []*Flow {
	capacity := func() float64 { return caps[rng.Intn(len(caps))] }
	coreLink := NewLink("core", core, 1e-4)
	up, down := make([]*Link, nodes), make([]*Link, nodes)
	bup, bdown := make([]*Link, boards), make([]*Link, boards)
	for i := range up {
		up[i], down[i] = NewLink("up", capacity(), 2e-4), NewLink("down", capacity(), 2e-4)
	}
	for i := range bup {
		bup[i], bdown[i] = NewLink("bup", capacity(), 2e-4), NewLink("bdown", capacity(), 2e-4)
	}
	flows := make([]*Flow, 1+rng.Intn(maxFlows))
	for i := range flows {
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		f := &Flow{Bytes: float64(rng.Intn(4000)), StartAt: starts[rng.Intn(len(starts))]}
		switch {
		case src == dst: // loopback
		case src%boards == dst%boards:
			f.Path = []*Link{up[src], down[dst]}
		default:
			f.Path = []*Link{up[src], bup[src%boards], coreLink, bdown[dst%boards], down[dst]}
		}
		if rng.Intn(10) == 0 && len(f.Path) > 0 {
			f.Path = append(f.Path, f.Path[0]) // crosses one link twice
		}
		flows[i] = f
	}
	return flows
}

// rings is k link-disjoint rings of m nodes each — k components that
// never touch — plus, when shared is set, one flow per ring over a
// common link, which merges them all while it runs.
func rings(rng *rand.Rand, k, m int, caps, starts []float64, shared bool) []*Flow {
	var flows []*Flow
	hub := NewLink("hub", caps[rng.Intn(len(caps))], 0)
	for r := 0; r < k; r++ {
		up, down := make([]*Link, m), make([]*Link, m)
		for i := range up {
			up[i] = NewLink("up", caps[rng.Intn(len(caps))], 1e-4)
			down[i] = NewLink("down", caps[rng.Intn(len(caps))], 1e-4)
		}
		for i := 0; i < m; i++ {
			flows = append(flows, &Flow{
				Path:    []*Link{up[i], down[(i+1)%m]},
				Bytes:   float64(1 + rng.Intn(3000)),
				StartAt: starts[rng.Intn(len(starts))],
			})
		}
		if shared {
			flows = append(flows, &Flow{
				Path:    []*Link{up[0], hub},
				Bytes:   float64(1 + rng.Intn(500)),
				StartAt: starts[rng.Intn(len(starts))],
			})
		}
	}
	return flows
}

// One Simulator, reused across every case — different topologies,
// different link sets, clusters that grow and then shrink — must
// reproduce the reference on each, every FinishAt compared with ==.
// The cases aim at what the delta simulation must get right: many
// components re-shared one at a time, events that touch one of them,
// components that merge when a flow starts and split when it retires,
// retired flows in lists, clamps to zero, and bottlenecks that tie
// across components.
func TestSlotResolvedSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ints := []float64{1, 2, 3, 5, 7, 10}
	cases := []func() []*Flow{
		benchFlows,
		componentFlows,
		func() []*Flow { return nil },
		func() []*Flow { // zero-byte, loopback and late starters around a shared link
			l, m := NewLink("l", 100, 0.1), NewLink("m", 40, 0.05)
			return []*Flow{
				{Path: []*Link{l}, Bytes: 0, StartAt: 3},
				{Bytes: 1e9, StartAt: 1},
				{Path: []*Link{l, m}, Bytes: 300},
				{Path: []*Link{m}, Bytes: 120, StartAt: 0.5},
				{Path: []*Link{l}, Bytes: 80, StartAt: 2.25},
			}
		},
		func() []*Flow { // a bridge starts, merges two components, and retires first
			a, b := NewLink("a", 10, 0), NewLink("b", 7, 0)
			return []*Flow{
				{Path: []*Link{a}, Bytes: 50},
				{Path: []*Link{a}, Bytes: 90},
				{Path: []*Link{b}, Bytes: 70},
				{Path: []*Link{a, b}, Bytes: 3, StartAt: 1},
				{Path: []*Link{b}, Bytes: 20, StartAt: 1},
				{Path: []*Link{a, b}, Bytes: 0, StartAt: 2},
				{StartAt: 2.5, Bytes: 5},
			}
		},
		func() []*Flow { // thirds of small integers: cap -= best goes below 0
			one, three := NewLink("one", 1, 0), NewLink("three", 3, 0)
			var flows []*Flow
			for i := 0; i < 7; i++ {
				flows = append(flows, &Flow{Path: []*Link{one, three}, Bytes: float64(1 + i)})
				flows = append(flows, &Flow{Path: []*Link{three}, Bytes: float64(2 + i), StartAt: float64(i) / 3})
			}
			flows = append(flows, &Flow{Path: []*Link{one, one}, Bytes: 1, StartAt: 0.1}) // crosses one twice
			return flows
		},
	}
	for i := 0; i < 300; i++ {
		cases = append(cases, func() []*Flow { return randomTopology(rng) })
	}
	for i := 0; i < 40; i++ { // disjoint rings, alone or merged by a hub
		cases = append(cases, func() []*Flow {
			return rings(rng, 2+rng.Intn(12), 2+rng.Intn(5), ints, []float64{0, 0, 0.5, 1.5}, i%2 == 1)
		})
	}
	for i := 0; i < 40; i++ { // equal integer capacities: shares tie across components
		cases = append(cases, func() []*Flow {
			return fabric(rng, 2+rng.Intn(30), 1+rng.Intn(8), 60, 10, []float64{10}, []float64{0})
		})
	}
	for _, n := range []int{4, 16, 64, 256, 512, 256, 64, 16, 4} { // clusters grow, then shrink
		cases = append(cases, func() []*Flow {
			return fabric(rng, n, 1+n/16, 2*n, 7, ints, []float64{0, 0.25, 0.5, 2})
		})
	}
	sim := NewSimulator()
	for i, build := range cases {
		want, got := twin(build)
		wantMS, gotMS := referenceSimulate(want), sim.Simulate(got)
		if wantMS != gotMS {
			t.Fatalf("case %d: makespan %x, reference %x", i, gotMS, wantMS)
		}
		for j := range want {
			if want[j].FinishAt != got[j].FinishAt {
				t.Fatalf("case %d flow %d: FinishAt %x, reference %x", i, j, got[j].FinishAt, want[j].FinishAt)
			}
		}
		// The pooled package-level path agrees too.
		if again := Simulate(got); again != wantMS {
			t.Fatalf("case %d: pooled Simulate %x, reference %x", i, again, wantMS)
		}
	}
}

// FuzzSimulateMatchesReference decodes its bytes into a small two-tier
// topology with capacities of 1 to 4 bytes per second, so that shares
// tie often, and holds every FinishAt to the reference with ==.
func FuzzSimulateMatchesReference(f *testing.F) {
	f.Add([]byte{4, 2, 1, 2, 3, 4, 1, 1, 1, 1, 2, 0, 1, 9, 0, 1, 3, 5, 1, 2, 2, 7, 2})
	f.Add([]byte{8, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 5, 30, 0, 1, 6, 30, 0, 2, 7, 30, 1, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nodes, boards := 2+next()%7, 1+next()%3
		capacity := func() float64 { return float64(1 + next()%4) }
		core := NewLink("core", capacity(), 0)
		up, down := make([]*Link, nodes), make([]*Link, nodes)
		bup, bdown := make([]*Link, boards), make([]*Link, boards)
		for i := range up {
			up[i], down[i] = NewLink("up", capacity(), 0), NewLink("down", capacity(), 0)
		}
		for i := range bup {
			bup[i], bdown[i] = NewLink("bup", capacity(), 0), NewLink("bdown", capacity(), 0)
		}
		var flows []*Flow
		for len(data) > 0 && len(flows) < 32 {
			src, dst := next()%nodes, next()%nodes
			fl := &Flow{Bytes: float64(next() % 40), StartAt: float64(next()%8) / 4}
			switch {
			case src == dst: // loopback
			case src%boards == dst%boards:
				fl.Path = []*Link{up[src], down[dst]}
			default:
				fl.Path = []*Link{up[src], bup[src%boards], core, bdown[dst%boards], down[dst]}
			}
			flows = append(flows, fl)
		}
		want, got := twin(func() []*Flow { return flows })
		wantMS, gotMS := referenceSimulate(want), Simulate(got) // pooled: Simulators carried across inputs
		if wantMS != gotMS {
			t.Fatalf("makespan %x, reference %x", gotMS, wantMS)
		}
		for j := range want {
			if want[j].FinishAt != got[j].FinishAt {
				t.Fatalf("flow %d: FinishAt %x, reference %x", j, got[j].FinishAt, want[j].FinishAt)
			}
		}
	})
}

// A link's Bandwidth is re-read on every Simulate call, as it was when
// fairShare read it per round: a Simulator that has seen a link before
// must not price it at its old capacity.
func TestSimulatorRereadsBandwidth(t *testing.T) {
	l := NewLink("l", 100, 0)
	sim := NewSimulator()
	if ms := sim.Simulate([]*Flow{{Path: []*Link{l}, Bytes: 100}}); ms != 1 {
		t.Fatalf("makespan %v, want 1", ms)
	}
	l.Bandwidth = 50
	if ms := sim.Simulate([]*Flow{{Path: []*Link{l}, Bytes: 100}}); ms != 2 {
		t.Fatalf("makespan %v after halving the link, want 2", ms)
	}
}
