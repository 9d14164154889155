package core

import (
	"testing"
	"testing/quick"

	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

// The mapper, the conflict graph and the coloring live in internal/plan
// (the planner prices with them); their tests stay here, next to the
// strategy that executes them, through core's IntegrityGreedyMap.

// maxDegree returns the mapping's maximum conflict degree — Theorem 2
// guarantees this is at most 2 for integrity-greedy mappings.
func maxDegree(m *autoplan.Mapping) int {
	d := 0
	for _, nbrs := range m.ConflictGraph() {
		if len(nbrs) > d {
			d = len(nbrs)
		}
	}
	return d
}

func TestIntegrityGreedyPaperExample(t *testing.T) {
	// Fig. 5(c): 15 SoCs, 5 logical groups of 3, PCBs of 5.
	m := IntegrityGreedyMap(15, 5, 5)
	if len(m.Groups) != 5 {
		t.Fatalf("got %d groups", len(m.Groups))
	}
	// Step 1 places one whole group per PCB (groups 1-3 in the paper).
	whole := 0
	for g := range m.Groups {
		if !m.Split(g) {
			whole++
		}
	}
	if whole != 3 {
		t.Fatalf("%d whole groups, want 3 (one per PCB)", whole)
	}
	// The two split groups each span exactly 2 PCBs (LG4 spans PCB1-2,
	// LG5 spans PCB2-3).
	for g := range m.Groups {
		if m.Split(g) && len(m.PCBsOf(g)) != 2 {
			t.Fatalf("split group %d spans %v", g, m.PCBsOf(g))
		}
	}
	// Every SoC used exactly once.
	seen := map[int]bool{}
	for _, grp := range m.Groups {
		for _, s := range grp {
			if seen[s] {
				t.Fatalf("SoC %d assigned twice", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != 15 {
		t.Fatalf("covered %d SoCs", len(seen))
	}
}

func TestIntegrityGreedyEvalConfig(t *testing.T) {
	// The paper's evaluation config: 32 SoCs, logical groups of 8
	// (hence 4 groups), PCBs of 5 — groups are larger than PCBs, so all
	// groups split, but contention degree stays ≤ 2.
	m := IntegrityGreedyMap(32, 4, 5)
	for g := range m.Groups {
		if len(m.Groups[g]) != 8 {
			t.Fatalf("group %d size %d", g, len(m.Groups[g]))
		}
	}
	if d := maxDegree(m); d > 2 {
		t.Fatalf("max conflict degree %d, Theorem 2 says ≤ 2", d)
	}
}

func TestIntegrityGreedyUnevenSizes(t *testing.T) {
	m := IntegrityGreedyMap(10, 3, 5)
	sizes := []int{len(m.Groups[0]), len(m.Groups[1]), len(m.Groups[2])}
	total := sizes[0] + sizes[1] + sizes[2]
	if total != 10 {
		t.Fatalf("sizes %v don't cover 10 SoCs", sizes)
	}
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Fatalf("unbalanced sizes %v", sizes)
		}
	}
}

func TestIntegrityGreedyValidates(t *testing.T) {
	for _, bad := range [][3]int{{0, 1, 5}, {4, 5, 5}, {4, 0, 5}, {4, 2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("IntegrityGreedyMap(%v) must panic", bad)
				}
			}()
			IntegrityGreedyMap(bad[0], bad[1], bad[2])
		}()
	}
}

func TestConflictCountWholeGroupsZero(t *testing.T) {
	// 20 SoCs, 4 groups of 5, PCBs of 5: every group fits a PCB whole.
	m := IntegrityGreedyMap(20, 4, 5)
	if c := m.ConflictCount(); c != 0 {
		t.Fatalf("conflict count %d, want 0", c)
	}
	for g := range m.Groups {
		if m.Split(g) {
			t.Fatalf("group %d should be whole", g)
		}
	}
	if d := maxDegree(m); d != 0 {
		t.Fatalf("whole groups must not conflict, degree %d", d)
	}
}

// bruteForceMinConflict enumerates every partition of the SoCs into
// groups with the same sizes as m and returns the minimum achievable
// ConflictCount. Exponential — only for tiny instances.
func bruteForceMinConflict(totalSoCs int, sizes []int, socsPerPCB int) int {
	best := 1 << 30
	assign := make([]int, totalSoCs) // SoC -> group, -1 unassigned
	for i := range assign {
		assign[i] = -1
	}
	remaining := append([]int(nil), sizes...)
	var rec func(soc int)
	rec = func(soc int) {
		if soc == totalSoCs {
			groups := make([][]int, len(sizes))
			for s, g := range assign {
				groups[g] = append(groups[g], s)
			}
			mp := &autoplan.Mapping{Groups: groups, SoCsPerPCB: socsPerPCB}
			if c := mp.ConflictCount(); c < best {
				best = c
			}
			return
		}
		for g := range remaining {
			if remaining[g] == 0 {
				continue
			}
			// Symmetry breaking: identical-size empty groups are
			// interchangeable; only descend into the first.
			if len(sizes) > 1 && g > 0 && remaining[g] == sizes[g] && remaining[g-1] == sizes[g-1] && sizes[g] == sizes[g-1] {
				continue
			}
			remaining[g]--
			assign[soc] = g
			rec(soc + 1)
			assign[soc] = -1
			remaining[g]++
		}
	}
	rec(0)
	return best
}

// Theorem 1: integrity-greedy minimizes the conflict count C. Verified
// exhaustively on small instances.
func TestTheorem1OptimalityBruteForce(t *testing.T) {
	cases := []struct{ m, n, pcb int }{
		{6, 2, 3},
		{6, 3, 4},
		{8, 2, 3},
		{8, 4, 3},
		{9, 3, 4},
		{10, 2, 4},
	}
	for _, c := range cases {
		greedy := IntegrityGreedyMap(c.m, c.n, c.pcb)
		sizes := make([]int, c.n)
		for g := range sizes {
			sizes[g] = len(greedy.Groups[g])
		}
		want := bruteForceMinConflict(c.m, sizes, c.pcb)
		if got := greedy.ConflictCount(); got != want {
			t.Fatalf("m=%d n=%d pcb=%d: greedy C=%d, optimal C=%d", c.m, c.n, c.pcb, got, want)
		}
	}
}

// Theorem 2: under integrity-greedy mapping every logical group
// contends with at most two other groups, for arbitrary configurations.
func TestTheorem2DegreeBoundProperty(t *testing.T) {
	root := tensor.NewRNG(31)
	f := func(seed uint64) bool {
		r := root.Split(seed)
		m := 4 + r.Intn(60)
		n := 1 + r.Intn(m)
		pcb := 2 + r.Intn(7)
		mp := IntegrityGreedyMap(m, n, pcb)
		return maxDegree(mp) <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the mapping always partitions the SoCs exactly.
func TestMappingPartitionProperty(t *testing.T) {
	root := tensor.NewRNG(32)
	f := func(seed uint64) bool {
		r := root.Split(seed)
		m := 2 + r.Intn(50)
		n := 1 + r.Intn(m)
		pcb := 1 + r.Intn(8)
		mp := IntegrityGreedyMap(m, n, pcb)
		seen := make([]bool, m)
		count := 0
		for _, grp := range mp.Groups {
			for _, s := range grp {
				if s < 0 || s >= m || seen[s] {
					return false
				}
				seen[s] = true
				count++
			}
		}
		return count == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStridedMapMaximizesSplits(t *testing.T) {
	greedy := IntegrityGreedyMap(20, 4, 5)
	strided := autoplan.StridedMap(autoplan.AllNodes(20), 4, 5)
	if greedy.ConflictCount() != 0 {
		t.Fatal("greedy should be conflict-free here")
	}
	if strided.ConflictCount() == 0 {
		t.Fatal("strided mapping should create conflicts — it is the ablation's foil")
	}
}
