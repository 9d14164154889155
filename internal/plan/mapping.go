package plan

import (
	"fmt"
	"slices"
)

// Mapping is the assignment of logical groups (LGs) to physical SoCs.
type Mapping struct {
	// Groups[g] lists the SoC IDs of logical group g, in placement
	// order.
	Groups [][]int
	// SoCsPerPCB is the physical group size the mapping was built for.
	SoCsPerPCB int
}

// AllNodes returns [0, 1, ..., numSoCs-1]: the whole cluster as a node
// list.
func AllNodes(numSoCs int) []int {
	nodes := make([]int, numSoCs)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// IntegrityGreedyMap implements the paper's integrity-greedy mapping:
// first place as many whole logical groups as possible inside single
// PCBs (no NIC crossing), then squeeze the remaining groups into the
// leftover slots in 1-D order, so each remaining group occupies a
// contiguous run of slots and can only touch its 1-D neighbours.
//
// nodes — the SoC IDs to map, ascending: the whole cluster, or the
// survivors of a crash or tidal reclaim — are divided into n logical
// groups; groups get ⌈m/n⌉ or ⌊m/n⌋ members (the paper assumes
// divisibility; we distribute remainders).
func IntegrityGreedyMap(nodes []int, n, socsPerPCB int) *Mapping {
	m := len(nodes)
	if n <= 0 || m <= 0 || n > m {
		panic(fmt.Sprintf("plan: cannot map %d SoCs into %d groups", m, n))
	}
	if socsPerPCB <= 0 {
		panic("plan: SoCsPerPCB must be positive")
	}
	// Group sizes: first (m mod n) groups get one extra member.
	sizes := make([]int, n)
	base, extra := m/n, m%n
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}

	// free[p] lists the unassigned nodes of the p-th occupied PCB,
	// ascending: the runs of nodes that share a PCB.
	var free [][]int
	for lo := 0; lo < m; {
		hi := lo + 1
		for hi < m && nodes[hi]/socsPerPCB == nodes[lo]/socsPerPCB {
			hi++
		}
		free = append(free, nodes[lo:hi])
		lo = hi
	}

	groups := make([][]int, n)
	assigned := make([]bool, n)

	// Step 1: whole-group placement. Walk PCBs; while a PCB has room
	// for the next unassigned group in full, place it there.
	for p := range free {
		for {
			g := nextUnassignedFitting(sizes, assigned, len(free[p]))
			if g < 0 {
				break
			}
			groups[g] = append([]int(nil), free[p][:sizes[g]]...)
			free[p] = free[p][sizes[g]:]
			assigned[g] = true
		}
	}

	// Step 2: squeeze the rest in 1-D order over the remaining slots.
	var slots []int
	for p := range free {
		slots = append(slots, free[p]...)
	}
	for g := 0; g < n; g++ {
		if assigned[g] {
			continue
		}
		groups[g] = append([]int(nil), slots[:sizes[g]]...)
		slots = slots[sizes[g]:]
	}
	return &Mapping{Groups: groups, SoCsPerPCB: socsPerPCB}
}

// nextUnassignedFitting returns the lowest-index unassigned group whose
// size fits in room, or -1.
func nextUnassignedFitting(sizes []int, assigned []bool, room int) int {
	for g, sz := range sizes {
		if !assigned[g] && sz <= room {
			return g
		}
	}
	return -1
}

// StridedMap deals nodes round-robin across n groups — member i of
// group g is the (g + i·n)-th node — so every group spans as many PCBs
// as possible: the worst-case mapping the Fig. 13 ablation compares
// integrity-greedy against, and the second placement extreme of the
// search's pipeline candidates.
func StridedMap(nodes []int, n, socsPerPCB int) *Mapping {
	groups := make([][]int, n)
	for g := range groups {
		groups[g] = make([]int, 0, (len(nodes)-g+n-1)/n)
	}
	for i, s := range nodes {
		groups[i%n] = append(groups[i%n], s)
	}
	return &Mapping{Groups: groups, SoCsPerPCB: socsPerPCB}
}

// PCBsOf returns the distinct PCBs group g touches, in member order.
func (m *Mapping) PCBsOf(g int) []int {
	var out []int
	for _, s := range m.Groups[g] {
		if p := s / m.SoCsPerPCB; !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// Split reports whether group g crosses a PCB boundary (and therefore
// sends intra-group traffic through PCB NICs).
func (m *Mapping) Split(g int) bool { return len(m.PCBsOf(g)) > 1 }

// ConflictCount returns C (Eq. 3): the maximum, over PCBs, of the
// number of split logical groups present on that PCB — the worst-case
// NIC contention the schedule has to absorb.
func (m *Mapping) ConflictCount() int {
	perPCB := map[int]int{}
	for g := range m.Groups {
		if pcbs := m.PCBsOf(g); len(pcbs) > 1 {
			for _, p := range pcbs {
				perPCB[p]++
			}
		}
	}
	c := 0
	for _, n := range perPCB {
		if n > c {
			c = n
		}
	}
	return c
}

// ConflictGraph returns, for each group, the other groups it contends
// with for a PCB NIC, ascending: two groups conflict when both are
// split across PCBs and they share one — only split groups route
// intra-group traffic through a PCB uplink, so a fully contained group
// conflicts with nobody ("LG1–3 have no inter-PCB communication and can
// be placed anywhere"). Each group's PCB list is computed once; the
// planner calls this for every data candidate, up to 256 groups wide.
func (m *Mapping) ConflictGraph() [][]int {
	n := len(m.Groups)
	pcbs := make([][]int, n)
	for g := range pcbs {
		pcbs[g] = m.PCBsOf(g)
	}
	adj := make([][]int, n)
	for a := 0; a < n; a++ {
		if len(pcbs[a]) < 2 {
			continue
		}
		for b := a + 1; b < n; b++ {
			if len(pcbs[b]) > 1 && sharesPCB(pcbs[a], pcbs[b]) {
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	return adj
}

func sharesPCB(a, b []int) bool {
	for _, p := range a {
		if slices.Contains(b, p) {
			return true
		}
	}
	return false
}

// CommunicationGroups divides the mapping's logical groups into the
// minimum number of communication groups (CGs), returned as lists of
// logical-group indices in schedule order. Groups inside one CG have
// no pairwise NIC conflict and synchronize simultaneously; distinct
// CGs synchronize in sequence, pipelined against compute (Fig. 7).
//
// The conflict graph of an integrity-greedy mapping has maximum degree
// 2 (Theorem 2) and — being a 1-D packing — is a union of paths, so a
// DFS 2-coloring is optimal (the paper reduces this to minimum
// bipartite graph coloring). The implementation is a general
// greedy-on-DFS coloring: it yields 2 CGs on bipartite conflict graphs
// and degrades gracefully (≤Δ+1 colors) on an arbitrary mapping.
func (m *Mapping) CommunicationGroups() [][]int {
	adj := m.ConflictGraph()
	color := make([]int, len(m.Groups))
	for i := range color {
		color[i] = -1
	}
	var dfs func(g int)
	dfs = func(g int) {
		// The lowest color no already-colored neighbour holds.
		c := 0
		for slices.ContainsFunc(adj[g], func(nb int) bool { return color[nb] == c }) {
			c++
		}
		color[g] = c
		for _, nb := range adj[g] {
			if color[nb] < 0 {
				dfs(nb)
			}
		}
	}
	// Color split (conflicting) groups via DFS from each component;
	// contained groups conflict with nobody and land in color 0.
	for g := range color {
		if color[g] < 0 && len(adj[g]) > 0 {
			dfs(g)
		}
	}
	cgs := make([][]int, 1)
	for g, c := range color {
		c = max(c, 0)
		for c >= len(cgs) {
			cgs = append(cgs, nil)
		}
		cgs[c] = append(cgs[c], g)
	}
	return cgs
}
