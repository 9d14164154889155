// Package core implements SoCFlow itself: group-wise parallelism with
// delayed aggregation (§3.1 — group sizing; the integrity-greedy
// logical-to-physical mapping, communication-group planning and the
// Fig. 7 schedule are internal/plan's, shared with the planner's
// search) and data-parallel mixed-precision training (§3.2 — the α/β
// controller), plus the distributed training engine that ties them to
// the cluster model.
package core

import autoplan "socflow/internal/plan"

// IntegrityGreedyMap maps SoCs 0..m-1 into n logical groups with
// plan.IntegrityGreedyMap. It exists only because benchmark/, which
// BENCHMARK.json freezes, times the mapper under this name
// (core.map_us); everything else calls internal/plan.
func IntegrityGreedyMap(m, n, socsPerPCB int) *autoplan.Mapping {
	return autoplan.IntegrityGreedyMap(autoplan.AllNodes(m), n, socsPerPCB)
}
