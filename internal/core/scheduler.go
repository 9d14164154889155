package core

import (
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

// PreemptionPlan records, per epoch, which logical groups are handed
// back to user workloads. SoCFlow's co-location story (§3, Fig. 1):
// when a user request arrives during training, the global scheduler
// checkpoints and terminates one *logical group* — not the whole job —
// so training continues on the remaining groups with reduced
// throughput and unchanged convergence semantics.
type PreemptionPlan struct {
	// ByEpoch maps epoch index -> logical-group indices preempted for
	// that epoch.
	ByEpoch map[int][]int
}

// preempted reports whether group g sits out the given epoch.
func (p *PreemptionPlan) preempted(g, epoch int) bool {
	if p == nil {
		return false
	}
	for _, pg := range p.ByEpoch[epoch] {
		if pg == g {
			return true
		}
	}
	return false
}

// PlanFromTrace derives a preemption plan from a tidal busy schedule:
// in each training epoch (mapped onto the given hours of day), a
// logical group is preempted when most of its SoCs are busy with user
// workloads.
func PlanFromTrace(m *autoplan.Mapping, sched [][]bool, startHour int, epochs int) *PreemptionPlan {
	plan := &PreemptionPlan{ByEpoch: make(map[int][]int)}
	for e := 0; e < epochs; e++ {
		hour := (startHour + e) % 24
		for g, members := range m.Groups {
			busy := 0
			for _, soc := range members {
				if soc < len(sched) && sched[soc][hour] {
					busy++
				}
			}
			if busy*2 > len(members) {
				plan.ByEpoch[e] = append(plan.ByEpoch[e], g)
			}
		}
	}
	return plan
}

// Checkpoint is a serializable snapshot of a group's training state,
// taken before a preemption so the group can resume in the next idle
// window.
type Checkpoint struct {
	Epoch   int
	Weights []*tensor.Tensor
	State   []*tensor.Tensor
}

// TakeCheckpoint deep-copies the group's tensors.
func TakeCheckpoint(epoch int, weights, state []*tensor.Tensor) *Checkpoint {
	cp := &Checkpoint{Epoch: epoch}
	for _, w := range weights {
		cp.Weights = append(cp.Weights, w.Clone())
	}
	for _, s := range state {
		cp.State = append(cp.State, s.Clone())
	}
	return cp
}

// Restore copies the snapshot back into live tensors.
func (cp *Checkpoint) Restore(weights, state []*tensor.Tensor) {
	for i, w := range weights {
		w.CopyFrom(cp.Weights[i])
	}
	for i, s := range state {
		s.CopyFrom(cp.State[i])
	}
}
