// Package server is the multi-tenant control plane: a long-lived
// scheduler that admits many concurrent training jobs over one
// simulated SoC-Cluster. It enforces per-tenant quotas, runs a
// priority scheduler with checkpoint-based preemption (a low-priority
// job is parked at an epoch boundary and later resumed from its
// latest checkpoint — the paper's §3 preemption lifted from one
// logical group to a whole job), and packs work into the idle windows
// of the tidal utilization trace.
//
// The scheduling core below is a pure function over value snapshots so
// every admission, quota, preemption, and packing decision is
// deterministic and table-testable without goroutines or clocks.
package server

import (
	"fmt"
	"math"
	"sort"

	"socflow/internal/cluster"
)

// Quota bounds one tenant's share of the cluster. Zero fields mean
// unlimited.
type Quota struct {
	// MaxRunningJobs caps how many of the tenant's jobs may run (or
	// hold a reservation) concurrently.
	MaxRunningJobs int `json:"max_running_jobs"`
	// MaxSoCs caps the tenant's total SoCs across its running jobs. A
	// single job asking for more than MaxSoCs is rejected at submit.
	MaxSoCs int `json:"max_socs"`
}

// Capacity is the number of SoCs the scheduler may hand to training at
// the given hour of day. With no trace the whole cluster is available;
// with a tidal trace, only the idle fraction is — training harvests the
// trough and shrinks at the daytime peak.
func Capacity(total int, tr *cluster.TidalTrace, hour float64) int {
	if total < 0 {
		total = 0
	}
	if tr == nil {
		return total
	}
	idle := 1 - tr.BusyFraction(hour)
	if idle < 0 {
		idle = 0
	}
	return int(math.Floor(float64(total)*idle + 1e-9))
}

// schedJob is the scheduler's view of a pending (queued or parked)
// job.
type schedJob struct {
	id       string
	tenant   string
	priority int
	socs     int
	seq      uint64 // submission order; earlier wins ties
}

// schedRunning is the scheduler's view of a job currently holding
// SoCs. A parking job has been told to stop but has not yet reached an
// epoch boundary: it still occupies its SoCs, but its capacity is
// already earmarked for the high-priority job that evicted it.
type schedRunning struct {
	schedJob
	preemptible bool
	parking     bool
}

// decision is one scheduling round's output: jobs to start now and
// running jobs to park. A high-priority job whose capacity must come
// from victims that are still parking appears in neither list — its
// reservation is re-derived next round, when the victims have exited.
// Why holds, by job ID, the figure behind each outcome: every started
// and parked job's, and every pending job's held back this round.
type decision struct {
	Start []string
	Park  []string
	Why   map[string]string
}

// why records the figure behind job id's outcome this round.
func (d *decision) why(id, format string, args ...any) {
	if d.Why == nil {
		d.Why = map[string]string{}
	}
	d.Why[id] = fmt.Sprintf(format, args...)
}

// planSchedule decides one round. If the cluster is oversubscribed —
// capacity fell below what running jobs hold — preemptible victims are
// parked, cheapest first, until the overflow is covered. Pending jobs
// are then considered in (priority desc, submission asc) order. Each is
// checked against its tenant quota, then started if it fits in free
// capacity, granted a reservation against capacity that parking jobs
// will free, or — if still short — granted a reservation by parking
// enough lower-priority preemptible victims. Jobs that cannot be served
// this round are skipped, letting smaller or lower-priority work
// backfill.
func planSchedule(pending []schedJob, running []schedRunning, capacity int, quota func(string) Quota) decision {
	used := 0
	tenantJobs := map[string]int{}
	tenantSoCs := map[string]int{}
	for _, r := range running {
		used += r.socs
		tenantJobs[r.tenant]++
		tenantSoCs[r.tenant] += r.socs
	}
	avail := capacity - used
	if avail < 0 {
		avail = 0
	}

	// SoCs being vacated by already-parking jobs: spendable as
	// reservations, not as immediate starts.
	parkingPool := 0
	for _, r := range running {
		if r.parking {
			parkingPool += r.socs
		}
	}

	order := append([]schedJob(nil), pending...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].priority != order[j].priority {
			return order[i].priority > order[j].priority
		}
		return order[i].seq < order[j].seq
	})

	victims := make([]schedRunning, 0, len(running))
	for _, r := range running {
		if r.preemptible && !r.parking {
			victims = append(victims, r)
		}
	}
	// Cheapest victims first: lowest priority, most recently admitted.
	sort.SliceStable(victims, func(i, j int) bool {
		if victims[i].priority != victims[j].priority {
			return victims[i].priority < victims[j].priority
		}
		return victims[i].seq > victims[j].seq
	})
	parked := map[string]bool{}

	var d decision

	// A capacity cut — the serving tenant widening with the request
	// tide, a tightened hour, a shrunk quota-free pool — can leave the
	// cluster oversubscribed. Park preemptible victims, cheapest first,
	// until the overflow is covered; capacity already draining through
	// parking jobs counts toward it. Non-preemptible jobs are never
	// touched, so a cut deeper than the preemptible pool leaves the
	// cluster transiently oversubscribed rather than killing work.
	if overflow := used - capacity; overflow > 0 {
		overflow -= parkingPool
		for _, v := range victims {
			if overflow <= 0 {
				break
			}
			parked[v.id] = true
			d.Park = append(d.Park, v.id)
			d.why(v.id, "capacity cut: running jobs hold %d SoCs, capacity is %d", used, capacity)
			parkingPool += v.socs
			overflow -= v.socs
		}
		// Only what parking jobs free beyond the cut remains grantable
		// as reservations below.
		parkingPool -= used - capacity
		if parkingPool < 0 {
			parkingPool = 0
		}
	}

	for _, p := range order {
		q := quota(p.tenant)
		if q.MaxRunningJobs > 0 && tenantJobs[p.tenant]+1 > q.MaxRunningJobs {
			d.why(p.id, "quota: tenant %q runs %d jobs, MaxRunningJobs is %d",
				p.tenant, tenantJobs[p.tenant], q.MaxRunningJobs)
			continue
		}
		if q.MaxSoCs > 0 && tenantSoCs[p.tenant]+p.socs > q.MaxSoCs {
			d.why(p.id, "quota: tenant %q holds %d SoCs, %d more exceeds MaxSoCs %d",
				p.tenant, tenantSoCs[p.tenant], p.socs, q.MaxSoCs)
			continue
		}

		if p.socs <= avail {
			d.Start = append(d.Start, p.id)
			d.why(p.id, "capacity: %d of %d SoCs free, job needs %d", avail, capacity, p.socs)
			avail -= p.socs
			tenantJobs[p.tenant]++
			tenantSoCs[p.tenant] += p.socs
			continue
		}

		// Not enough free capacity. See whether a reservation can be
		// covered by capacity already draining (parkingPool) plus, for
		// what remains, by evicting strictly lower-priority victims.
		need := p.socs - avail - parkingPool
		reclaim := 0
		var chosen []string
		if need > 0 {
			for _, v := range victims {
				if parked[v.id] || v.priority >= p.priority {
					continue
				}
				chosen = append(chosen, v.id)
				reclaim += v.socs
				if reclaim >= need {
					break
				}
			}
		}
		if avail+parkingPool+reclaim < p.socs {
			// Cannot be served this round; let others backfill.
			d.why(p.id, "capacity: %d of %d SoCs free, %d draining, %d preemptible at lower priority; job needs %d",
				avail, capacity, parkingPool, reclaim, p.socs)
			continue
		}
		for _, id := range chosen {
			parked[id] = true
			d.Park = append(d.Park, id)
			d.why(id, "evicted by %s (priority %d, %d SoCs)", p.id, p.priority, p.socs)
		}
		d.why(p.id, "reserved: %d of %d SoCs free, %d draining from parking jobs; job needs %d",
			avail, capacity, parkingPool+reclaim, p.socs)
		// Reserve: consume free capacity first, then the draining pool
		// (which the new parks just enlarged). The job itself starts on
		// a later round, once its victims have actually exited.
		pool := parkingPool + reclaim
		fromAvail := p.socs
		if fromAvail > avail {
			fromAvail = avail
		}
		avail -= fromAvail
		parkingPool = pool - (p.socs - fromAvail)
		tenantJobs[p.tenant]++
		tenantSoCs[p.tenant] += p.socs
	}
	return d
}
