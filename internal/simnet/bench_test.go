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
// allocation-free once warm.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	flows := benchFlows()
	Simulate(flows)
	avg := testing.AllocsPerRun(20, func() { Simulate(flows) })
	if avg > 0.5 {
		t.Fatalf("Simulate steady state allocates %.1f objects/run, want 0", avg)
	}
}

// TestSimulatorScratchResetBound exercises the retained-link cap: after
// simulating across more links than maxRetainedLinks the scratch map is
// rebuilt, and results stay correct.
func TestSimulatorScratchResetBound(t *testing.T) {
	sim := NewSimulator()
	for i := 0; i < maxRetainedLinks+10; i += 500 {
		links := make([]*Link, 500)
		for j := range links {
			links[j] = NewLink("l", 100, 0)
		}
		for j := range links {
			f := &Flow{Path: []*Link{links[j]}, Bytes: 100}
			if ms := sim.Simulate([]*Flow{f}); ms != 1 {
				t.Fatalf("makespan %v, want 1", ms)
			}
		}
	}
}
