package simnet

import "testing"

// benchFlows builds a contended topology shaped like one PCB uplink
// sync round: per-SoC uplinks feeding a shared PCB link, with cross
// traffic, so fairShare runs several water-filling rounds per event.
func benchFlows() []*Flow {
	pcb := NewLink("pcb.up", 125e6, 2e-4)
	fabric := NewLink("fabric", 2.5e9, 2e-4)
	flows := make([]*Flow, 0, 16)
	for i := 0; i < 8; i++ {
		up := NewLink("soc.up", 125e6, 2e-4)
		flows = append(flows,
			&Flow{Name: "grad", Path: []*Link{up, pcb, fabric}, Bytes: 4e6, StartAt: float64(i) * 0.001},
			&Flow{Name: "act", Path: []*Link{up, fabric}, Bytes: 1e6},
		)
	}
	return flows
}

// BenchmarkSimnetSimulate pins the zero-alloc steady state of the
// pooled Simulate path: the planner calls this thousands of times in
// its inner search loop, so per-event scratch must be reused, not
// reallocated. Gated by TestSimulateSteadyStateAllocs below; the repo
// benchmark tracks the same figure as simnet.allocs_per_call.
func BenchmarkSimnetSimulate(b *testing.B) {
	flows := benchFlows()
	Simulate(flows) // warm the pool and the link-state scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(flows)
	}
}

// componentFlows is the shape a 512-SoC search simulates: 30 two-flow
// components inside PCBs (two flows out of one SoC) and one fabric
// component of 30 flows between boards, with staggered starts, so most
// events touch one component of 31.
func componentFlows() []*Flow {
	const boards = 30
	fabric := NewLink("fabric", 2.5e9, 2e-4)
	soc := func() *Link { return NewLink("soc", 125e6, 2e-4) }
	up, down := make([]*Link, boards), make([]*Link, boards)
	for p := range up {
		up[p], down[p] = NewLink("pcb.up", 125e6, 2e-4), NewLink("pcb.down", 125e6, 2e-4)
	}
	flows := make([]*Flow, 0, 3*boards)
	for p := 0; p < boards; p++ {
		src := soc()
		flows = append(flows,
			&Flow{Name: "intra", Path: []*Link{src, soc()}, Bytes: float64(1+p%5) * 1e6},
			&Flow{Name: "intra", Path: []*Link{src, soc()}, Bytes: float64(1+p%3) * 1e6, StartAt: float64(p%4) * 0.002},
			&Flow{Name: "cross", Path: []*Link{soc(), up[p], fabric, down[(p+1)%boards], soc()}, Bytes: 4e6, StartAt: float64(p%3) * 0.001},
		)
	}
	return flows
}

// BenchmarkSimnetSimulateComponents is BenchmarkSimnetSimulate's rung
// for many link-disjoint components (componentFlows), where a share
// re-fills only the components an event touched.
func BenchmarkSimnetSimulateComponents(b *testing.B) {
	flows := componentFlows()
	Simulate(flows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(flows)
	}
}

// TestSimulatorReuseMatchesPackageSimulate checks that a long-lived
// Simulator produces bit-identical results to fresh package-level
// calls, across repeated reuse and differing flow sets.
func TestSimulatorReuseMatchesPackageSimulate(t *testing.T) {
	sim := NewSimulator()
	for round := 0; round < 3; round++ {
		a := benchFlows()
		b := benchFlows()
		msA := sim.Simulate(a)
		msB := Simulate(b)
		if msA != msB {
			t.Fatalf("round %d: reused simulator makespan %v != fresh %v", round, msA, msB)
		}
		for i := range a {
			if a[i].FinishAt != b[i].FinishAt {
				t.Fatalf("round %d flow %d: FinishAt %v != %v", round, i, a[i].FinishAt, b[i].FinishAt)
			}
		}
	}
}

// TestSimulateSteadyStateAllocs asserts the pooled Simulate path stays
// allocation-free once warm, on one component and on many.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	for _, flows := range [][]*Flow{benchFlows(), componentFlows()} {
		Simulate(flows)
		avg := testing.AllocsPerRun(20, func() { Simulate(flows) })
		if avg > 0.5 {
			t.Fatalf("Simulate steady state allocates %.1f objects/run over %d flows, want 0", avg, len(flows))
		}
	}
}

// TestSimulatorScratchResetBound checks that a Simulator's slot table
// is sized per call: after a call over 5,000 distinct links, a call
// over one link keeps one slot, both results are right, and between
// calls the link table holds no link.
func TestSimulatorScratchResetBound(t *testing.T) {
	sim := NewSimulator()
	check := func(what string, ms float64, slots int) {
		t.Helper()
		if ms != 1 {
			t.Fatalf("%s: makespan %v, want 1", what, ms)
		}
		if len(sim.states) != slots {
			t.Fatalf("%s: %d slots, want %d", what, len(sim.states), slots)
		}
		for i, e := range sim.table {
			if e.link != nil {
				t.Fatalf("%s: table entry %d still holds link %q", what, i, e.link.Name)
			}
		}
	}
	flows := make([]*Flow, 5000)
	for i := range flows {
		flows[i] = &Flow{Path: []*Link{NewLink("l", 100, 0)}, Bytes: 100}
	}
	check("5,000 links", sim.Simulate(flows), 5000)
	check("one link", sim.Simulate([]*Flow{{Path: []*Link{NewLink("one", 100, 0)}, Bytes: 100}}), 1)
}
