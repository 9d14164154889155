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
	nodes, boards := 4+rng.Intn(20), 1+rng.Intn(5)
	capacity := func() float64 { return []float64{50, 125, 125, 1000}[rng.Intn(4)] }
	core := NewLink("core", 2500, 1e-4)
	up, down := make([]*Link, nodes), make([]*Link, nodes)
	bup, bdown := make([]*Link, boards), make([]*Link, boards)
	for i := range up {
		up[i], down[i] = NewLink("up", capacity(), 2e-4), NewLink("down", capacity(), 2e-4)
	}
	for i := range bup {
		bup[i], bdown[i] = NewLink("bup", capacity(), 2e-4), NewLink("bdown", capacity(), 2e-4)
	}
	flows := make([]*Flow, 1+rng.Intn(40))
	for i := range flows {
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		f := &Flow{Bytes: float64(rng.Intn(4000)), StartAt: float64(rng.Intn(4)) * 0.75}
		switch {
		case src == dst: // loopback
		case src%boards == dst%boards:
			f.Path = []*Link{up[src], down[dst]}
		default:
			f.Path = []*Link{up[src], bup[src%boards], core, bdown[dst%boards], down[dst]}
		}
		if rng.Intn(10) == 0 && len(f.Path) > 0 {
			f.Path = append(f.Path, f.Path[0]) // crosses one link twice
		}
		flows[i] = f
	}
	return flows
}

// One Simulator, reused across every case — different topologies,
// different link sets, so its slot table is carried from one "cluster"
// to the next — must reproduce the reference on each.
func TestSlotResolvedSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []func() []*Flow{
		benchFlows,
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
	}
	for i := 0; i < 300; i++ {
		cases = append(cases, func() []*Flow { return randomTopology(rng) })
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
