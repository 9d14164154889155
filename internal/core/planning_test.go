package core

import (
	"math"
	"testing"
	"testing/quick"

	"socflow/internal/cluster"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

// validCGs reports whether the communication groups are conflict-free:
// no two groups in the same CG are adjacent in the mapping's conflict
// graph.
func validCGs(m *autoplan.Mapping, cgs [][]int) bool {
	adj := m.ConflictGraph()
	for _, cg := range cgs {
		in := map[int]bool{}
		for _, g := range cg {
			in[g] = true
		}
		for _, g := range cg {
			for _, nb := range adj[g] {
				if in[nb] {
					return false
				}
			}
		}
	}
	return true
}

func TestPlanPaperExample(t *testing.T) {
	// Fig. 5(c)/§3.1: LG1-4 form one CG, LG5 another — the two split
	// groups (LG4, LG5) share PCB2 and must separate; whole groups join
	// the first CG.
	m := IntegrityGreedyMap(15, 5, 5)
	cgs := m.CommunicationGroups()
	if len(cgs) != 2 {
		t.Fatalf("got %d CGs, want 2", len(cgs))
	}
	if !validCGs(m, cgs) {
		t.Fatal("plan has intra-CG conflicts")
	}
	// The two split groups must be in different CGs.
	var split []int
	for g := range m.Groups {
		if m.Split(g) {
			split = append(split, g)
		}
	}
	if len(split) != 2 {
		t.Fatalf("expected 2 split groups, got %v", split)
	}
	if cgOf(cgs, split[0]) == cgOf(cgs, split[1]) {
		t.Fatal("conflicting split groups share a CG")
	}
}

func TestPlanConflictFreeMappingSingleCG(t *testing.T) {
	m := IntegrityGreedyMap(20, 4, 5)
	if cgs := m.CommunicationGroups(); len(cgs) != 1 {
		t.Fatalf("conflict-free mapping should need 1 CG, got %d", len(cgs))
	}
}

func TestCGOfUnknownGroup(t *testing.T) {
	if cgOf([][]int{{0, 1}}, 7) != -1 {
		t.Fatal("unknown group should map to -1")
	}
}

// Property: planning an integrity-greedy mapping always yields a valid
// plan with at most 2 CGs (the paper's bipartite-coloring guarantee).
func TestPlanAtMostTwoCGsProperty(t *testing.T) {
	root := tensor.NewRNG(41)
	f := func(seed uint64) bool {
		r := root.Split(seed)
		m := 4 + r.Intn(60)
		n := 1 + r.Intn(m)
		pcb := 2 + r.Intn(7)
		mp := IntegrityGreedyMap(m, n, pcb)
		cgs := mp.CommunicationGroups()
		return validCGs(mp, cgs) && len(cgs) <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every group lands in exactly one CG.
func TestPlanPartitionProperty(t *testing.T) {
	root := tensor.NewRNG(43)
	f := func(seed uint64) bool {
		r := root.Split(seed)
		m := 4 + r.Intn(40)
		n := 1 + r.Intn(m)
		mp := IntegrityGreedyMap(m, n, 5)
		seen := map[int]int{}
		for _, cg := range mp.CommunicationGroups() {
			for _, g := range cg {
				seen[g]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The paper's hiding condition ("communication can be totally hidden as
// long as the computing is slower than the communication", with ≤ 2
// CGs), on the one Fig. 7 kernel SoCFlow executes and the planner
// prices with.
func TestPipelineIterationTimeHiding(t *testing.T) {
	// Fig. 5(c): two CGs, each holding one of the two split groups.
	m := IntegrityGreedyMap(15, 5, 5)
	cgs := m.CommunicationGroups()
	clu := cluster.New(cluster.Config{NumSoCs: 15})
	const iters = 20
	timing := func(model string, compute float64) (autoplan.DataTiming, float64) {
		spec := nn.MustSpec(model)
		c := make([]float64, len(m.Groups))
		for g := range c {
			c[g] = compute
		}
		dt := autoplan.NewPricer(clu, spec).DataTiming(m.Groups, cgs, nil, c, iters)
		if len(dt.CGSync) != 2 || dt.CGSync[0] <= 0 || dt.CGSync[1] <= 0 {
			t.Fatalf("%s: want two non-empty CG windows, got %v", model, dt.CGSync)
		}
		return dt, autoplan.UpdateSeconds(spec)
	}

	// Compute-bound: both windows fit behind the compute they overlap,
	// so the span is the compute and update alone.
	dt, upd := timing("lenet5", 10)
	want := 0.0
	for i := 0; i < iters; i++ {
		want = want + 10 + upd
	}
	if dt.Span != want {
		t.Fatalf("hidden case: span %v, want iters x (compute+update) = %v (windows %v)", dt.Span, want, dt.CGSync)
	}

	// NIC-bound: the windows exceed the compute, and the NIC serializes
	// them — the span grows with their sum, not their maximum.
	dt, upd = timing("vgg11", 0)
	nic := iters * (dt.CGSync[0] + dt.CGSync[1])
	if want := (1-autoplan.OverlapFraction)*upd + nic; math.Abs(dt.Span-want) > 1e-9*want {
		t.Fatalf("NIC-bound case: span %v, want first gradients + iters x (sum of windows) = %v", dt.Span, want)
	}
}

func TestEpochTimeModelDecreasesWithGroups(t *testing.T) {
	// Eq. 1: T_epoch is negatively correlated with N (§3.1).
	pr := autoplan.NewPricer(clu32(), nn.MustSpec("vgg11"))
	price := func(n int) float64 {
		return pr.EpochSeconds(&autoplan.Plan{NumSoCs: 32, Mode: autoplan.ModeData,
			Placement: IntegrityGreedyMap(32, n, 5).Groups, Batch: 64}, 50000)
	}
	t1, t4, t8 := price(1), price(4), price(8)
	if !(t8 < t4 && t4 < t1) {
		t.Fatalf("epoch time must fall with more groups: N=1 %v, N=4 %v, N=8 %v", t1, t4, t8)
	}
}

func TestSelectGroupCountStopsAtKnee(t *testing.T) {
	// Synthetic Fig. 6 profile: fine through N=4, collapses at N=8.
	probe := func(n int) (float64, error) {
		switch {
		case n <= 4:
			return 0.60 - 0.02*float64(n), nil
		default:
			return 0.15, nil
		}
	}
	got, err := SelectGroupCount(32, 0.5, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("selected N=%d, want 4", got)
	}
}

func TestSelectGroupCountAllGood(t *testing.T) {
	probe := func(n int) (float64, error) { return 0.6, nil }
	got, err := SelectGroupCount(16, 0.5, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Fatalf("selected N=%d, want 16 (largest probed)", got)
	}
}

func TestSelectGroupCountValidates(t *testing.T) {
	probe := func(n int) (float64, error) { return 0.5, nil }
	if _, err := SelectGroupCount(0, 0.5, probe); err == nil {
		t.Fatal("maxGroups 0 must error")
	}
	if _, err := SelectGroupCount(8, 0, probe); err == nil {
		t.Fatal("threshold 0 must error")
	}
	if _, err := SelectGroupCount(8, 1, probe); err == nil {
		t.Fatal("threshold 1 must error")
	}
}
