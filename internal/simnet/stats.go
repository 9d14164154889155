package simnet

import "sync/atomic"

// Counters tally simulated transfers. Each simulated network keeps its
// own (cluster.Cluster does, so a run's figures are its cluster's and
// never another run's), and every Simulate call is also charged to one
// process-wide aggregate, which SnapshotStats reads. The zero value is
// ready to use; a Counters must not be copied once used.
type Counters struct {
	flows, bytes, simNanos atomic.Int64
}

// process is the process-wide aggregate.
var process Counters

// Stats is a snapshot of the simulator counters.
type Stats struct {
	// Flows and Bytes total the simulated transfers.
	Flows, Bytes int64
	// SimSeconds accumulates every Simulate call's makespan — total
	// simulated network latency (windows may overlap the simulated
	// compute timeline; this is the network model's own clock).
	SimSeconds float64
}

// Stats reads c's current values.
func (c *Counters) Stats() Stats {
	return Stats{
		Flows:      c.flows.Load(),
		Bytes:      c.bytes.Load(),
		SimSeconds: float64(c.simNanos.Load()) / 1e9,
	}
}

// SnapshotStats reads the process-wide aggregate: every simulation of
// every network in the process, whoever ran it.
func SnapshotStats() Stats { return process.Stats() }

// Delta returns s - since, the simulation activity between snapshots.
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		Flows:      s.Flows - since.Flows,
		Bytes:      s.Bytes - since.Bytes,
		SimSeconds: s.SimSeconds - since.SimSeconds,
	}
}

// record charges one Simulate call to the process aggregate and, when
// non-nil, to net.
func record(net *Counters, flows []*Flow, makespan float64) {
	var bytes float64
	for _, f := range flows {
		bytes += f.Bytes
	}
	for _, c := range [2]*Counters{&process, net} {
		if c != nil {
			c.flows.Add(int64(len(flows)))
			c.bytes.Add(int64(bytes))
			c.simNanos.Add(int64(makespan * 1e9))
		}
	}
}
