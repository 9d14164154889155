package socflow

import (
	"fmt"

	"socflow/internal/cluster"
	"socflow/internal/plan"
)

// TopologyReport describes how SoCFlow would organize a fleet: the
// logical groups, their physical placement, and the communication
// schedule — the outputs of §3.1's three planning steps, exposed so
// operators can inspect a deployment before launching a job.
type TopologyReport struct {
	// NumSoCs, NumGroups, SoCsPerPCB echo the inputs.
	NumSoCs, NumGroups, SoCsPerPCB int
	// Groups lists each logical group's SoC IDs.
	Groups [][]int
	// SplitGroups lists the groups whose members span PCBs.
	SplitGroups []int
	// ConflictCount is C (Eq. 3) under integrity-greedy mapping.
	ConflictCount int
	// CommunicationGroups lists each CG's logical-group indices in
	// schedule order.
	CommunicationGroups [][]int
}

// PlanTopology runs integrity-greedy mapping and communication-group
// planning for a fleet, without training anything. socsPerPCB 0 uses
// the evaluated server's 5.
func PlanTopology(numSoCs, numGroups, socsPerPCB int) (*TopologyReport, error) {
	if socsPerPCB == 0 {
		socsPerPCB = cluster.SoCsPerPCBDefault
	}
	if numSoCs <= 0 || numGroups <= 0 || numGroups > numSoCs || socsPerPCB <= 0 {
		return nil, fmt.Errorf("%w: cannot plan %d SoCs / %d groups / %d per PCB", ErrBadTopology, numSoCs, numGroups, socsPerPCB)
	}
	m := plan.IntegrityGreedyMap(plan.AllNodes(numSoCs), numGroups, socsPerPCB)
	rep := &TopologyReport{
		NumSoCs:             numSoCs,
		NumGroups:           numGroups,
		SoCsPerPCB:          socsPerPCB,
		Groups:              m.Groups,
		ConflictCount:       m.ConflictCount(),
		CommunicationGroups: m.CommunicationGroups(),
	}
	for g := range m.Groups {
		if m.Split(g) {
			rep.SplitGroups = append(rep.SplitGroups, g)
		}
	}
	return rep, nil
}

// TidalProfile returns the 24 hourly expected busy-SoC fractions of the
// deployed-fleet utilization model (Fig. 3).
func TidalProfile() []float64 {
	return cluster.DefaultTidalTrace().HourlyProfile()
}

// IdleWindow returns the nightly low-utilization window (start hour and
// length in hours) below the given busy-fraction threshold, the slot
// SoCFlow schedules training jobs into.
func IdleWindow(threshold float64) (startHour, hours float64) {
	return cluster.DefaultTidalTrace().IdleWindow(threshold)
}
