package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"socflow/internal/core"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// runElastic is the recovery-enabled worker pool of both tracks: the
// mesh is stacked WithMetrics(WithHeartbeat(WithFaults(base))) so the
// fault plan *causes* crashes innermost, the heartbeat layer turns the
// resulting silence into detection evidence, and the outer meter keeps
// counting pure data-plane payloads. One worker goroutine runs per
// listed node under a roundManager driven by the track's policy; work
// is a node's whole elastic life. On success res carries the recovery
// counters.
func runElastic(ctx context.Context, base transport.Mesh, cfg *DistConfig, res *DistResult, prefix string,
	workers []int, policy roundPolicy, resizes <-chan int, work func(m *roundManager, node transport.Node) error) error {

	rc := cfg.Recovery.withDefaults()
	inner := base
	if cfg.Faults != nil {
		inner = transport.WithFaults(inner, cfg.Faults)
	}
	hb := transport.WithHeartbeat(inner, rc.HeartbeatInterval, rc.HeartbeatTimeout, cfg.Metrics)
	var top transport.Mesh = hb
	if cfg.Metrics != nil {
		top = transport.WithMetrics(top, cfg.Metrics)
	}
	m := newRoundManager(cfg.Epochs, rc, hb, cfg.Metrics, workers, policy)
	// Manager first so supervision stops before the dying mesh turns
	// every silence into a spurious detection; mesh second to unblock
	// workers stuck in collectives.
	p := newPool(cfg.Metrics, prefix, func() { m.close(); top.Close() },
		func(id int) error { return work(m, top.Node(id)) })
	m.spawnFn = p.launch
	m.start(resizes)
	for _, id := range workers {
		p.launch(id)
	}
	err := p.wait(ctx)
	p.teardown()
	if err != nil {
		return err
	}
	m.mu.Lock()
	done, stats := m.done, m.stats
	m.mu.Unlock()
	if !done {
		return fmt.Errorf("runtime: elastic run ended before completing %d epochs (all workers gone)", cfg.Epochs)
	}
	res.Recovery = &stats
	return nil
}

// dpPolicy is the data-parallel round policy: every live worker trains
// every round in its configured group, and a rejoiner's state comes
// from a donor holding the boundary state.
type dpPolicy struct {
	groups [][]int
}

func (p *dpPolicy) changed(int, string, bool) {}
func (p *dpPolicy) commit(*round)             {}

func (p *dpPolicy) build(m *roundManager, r *round) error {
	r.groups = make([][]int, len(p.groups))
	for g, members := range p.groups {
		for _, x := range members {
			// A joiner due later than this round's epoch stays parked at
			// the barrier: it has no state to retry an earlier epoch with.
			if due, joining := m.joining[x]; !m.dead[x] && !(joining && due > r.epoch) {
				r.groups[g] = append(r.groups[g], x)
			}
		}
	}
	if len(r.leaders()) == 0 {
		return fmt.Errorf("runtime: no group has a live member at epoch %d", r.epoch)
	}
	// Donor assignment: a joiner's state comes from a groupmate holding
	// the boundary state when one exists, else from any such worker —
	// weights are identical across groups at epoch boundaries, so every
	// veteran's snapshot is authoritative.
	veteran := func(candidates []int) int {
		for _, c := range candidates {
			if m.stateful[c] && !m.dead[c] {
				return c
			}
		}
		return -1
	}
	for _, members := range r.groups {
		for _, x := range members {
			if m.stateful[x] {
				continue
			}
			donor := veteran(members)
			if donor < 0 {
				donor = veteran(m.workers)
			}
			if donor < 0 {
				return fmt.Errorf("runtime: no live donor for rejoining node %d", x)
			}
			r.transfer[x] = donor
		}
	}
	return nil
}

// elasticSnap is a worker's in-memory snapshot of the training state
// at the start of an epoch: weights, batch-norm state, and optimizer
// velocities, all deep copies.
type elasticSnap struct {
	weights []*tensor.Tensor
	state   []*tensor.Tensor
	vel     []*tensor.Tensor
}

func cloneSet(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func copySet(dst, src []*tensor.Tensor) {
	for i := range dst {
		dst[i].CopyFrom(src[i])
	}
}

// roundTrainer is the track-specific half of an elastic worker.
type roundTrainer interface {
	// enter positions the worker for round r: rollback on a retry
	// (unless its state is about to arrive by transfer — receives) and
	// any reconfiguration. It reports whether the worker trains this
	// round (false: it only serves state) and the optimizer velocities
	// its snapshots carry.
	enter(e *elasticState, r *round, receives bool) (trains bool, vel []*tensor.Tensor, err error)
	runEpoch(epoch int, r *round) error
}

// elasticState is the track-independent half of an elastic worker:
// rounds from the manager, start-of-epoch snapshots between them, and
// the state-transfer handshake when membership changes.
type elasticState struct {
	mgr   *roundManager
	node  transport.Node
	clock *faultClock
	// weights and state are the full replica's tensors.
	weights, state []*tensor.Tensor
	// shipVel sends the optimizer velocities along with transferred
	// state (data-parallel); a pipeline newcomer's stage has no momentum
	// history by construction.
	shipVel bool
	snaps   map[int]*elasticSnap
}

// run is one node's elastic life.
func (e *elasticState) run(t roundTrainer) error {
	e.snaps = make(map[int]*elasticSnap)
	me := e.node.ID()
	var last *round
	var lastErr error
	for {
		r, err := e.mgr.next(me, last, lastErr)
		if err != nil || r == nil {
			return err
		}
		last, lastErr = r, nil
		switch err := e.step(t, r); {
		case err == nil:
		case err == errSelfCrash:
			return nil // injected preemption: clean observed-by-peers exit
		case errors.Is(err, transport.ErrInjectedCrash):
			// The preemption landed inside a collective.
			e.clock.crashed(r.epoch, 0)
			return nil
		case errors.Is(err, transport.ErrRoundAborted) || errors.Is(err, transport.ErrPeerDead):
			// Manager-driven abort or a declared-dead peer: retried from
			// the barrier rather than tearing the run down.
			lastErr = err
		default:
			return err
		}
	}
}

// step is one round: position, snapshot, state transfer, epoch.
func (e *elasticState) step(t roundTrainer, r *round) error {
	_, receives := r.transfer[e.node.ID()]
	trains, vel, err := t.enter(e, r, receives)
	if err != nil {
		return err
	}
	if trains && !receives {
		// Snapshot before any transport so a failed transfer can still
		// retry this epoch from here.
		e.takeSnap(r.epoch, vel)
	}
	if err := e.exchangeState(r, vel); err != nil {
		return err
	}
	if receives {
		e.takeSnap(r.epoch, vel)
	}
	if !trains {
		return nil // served state without training; back to the barrier
	}
	return t.runEpoch(r.epoch, r)
}

func (e *elasticState) takeSnap(epoch int, vel []*tensor.Tensor) {
	e.snaps[epoch] = &elasticSnap{weights: cloneSet(e.weights), state: cloneSet(e.state), vel: cloneSet(vel)}
	delete(e.snaps, epoch-2)
}

// restore rolls the replica back to the epoch's start-of-round
// snapshot. Velocities come along only into the views they were taken
// under; pass nil to leave momentum alone.
func (e *elasticState) restore(epoch int, vel []*tensor.Tensor) error {
	snap := e.snaps[epoch]
	if snap == nil {
		return fmt.Errorf("runtime: worker %d has no snapshot for epoch %d retry", e.node.ID(), epoch)
	}
	copySet(e.weights, snap.weights)
	copySet(e.state, snap.state)
	if len(vel) == len(snap.vel) {
		copySet(vel, snap.vel)
	}
	return nil
}

// exchangeState is the round-start handshake over the Checkpoint wire
// encoding: a receiver installs its sender's epoch-boundary state
// before touching a batch; a sender ships it to each of its receivers,
// ascending. The sender's snapshot is authoritative when it exists (the
// node may have trained past the boundary in a failed attempt);
// otherwise its live replica is exactly the boundary state.
func (e *elasticState) exchangeState(r *round, vel []*tensor.Tensor) error {
	me := e.node.ID()
	if !e.shipVel {
		vel = nil
	}
	if from, ok := r.transfer[me]; ok {
		blob, err := e.node.Recv(from)
		if err != nil {
			return err
		}
		cp, err := core.ReadCheckpoint(bytes.NewReader(blob))
		if err != nil {
			return fmt.Errorf("runtime: decoding transferred state: %w", err)
		}
		if cp.Epoch != r.epoch {
			return fmt.Errorf("runtime: transferred state is for epoch %d, want %d", cp.Epoch, r.epoch)
		}
		if len(cp.Weights) != len(e.weights) || len(cp.State) != len(e.state)+len(vel) {
			return fmt.Errorf("runtime: transferred state shape mismatch (%d/%d tensors, want %d/%d)",
				len(cp.Weights), len(cp.State), len(e.weights), len(e.state)+len(vel))
		}
		copySet(e.weights, cp.Weights)
		copySet(e.state, cp.State[:len(e.state)])
		copySet(vel, cp.State[len(e.state):])
	}
	to := r.receivers(me)
	if len(to) == 0 {
		return nil
	}
	weights, state := e.weights, e.state
	if snap := e.snaps[r.epoch]; snap != nil {
		weights, state = snap.weights, snap.state
		if e.shipVel {
			vel = snap.vel
		}
	}
	blob := (&core.Checkpoint{
		Epoch:   r.epoch,
		Weights: weights,
		State:   append(append([]*tensor.Tensor{}, state...), vel...),
	}).Bytes()
	for _, x := range to {
		if err := e.node.Send(x, blob); err != nil {
			return err
		}
		e.mgr.addTransferBytes(int64(len(blob)))
	}
	return nil
}

// enter implements roundTrainer: a data-parallel worker trains every
// round it is in, under the same stage cut, so momentum always carries.
func (w *dpWorker) enter(e *elasticState, r *round, receives bool) (bool, []*tensor.Tensor, error) {
	if r.restore && !receives {
		if err := e.restore(r.epoch, w.vel); err != nil {
			return false, nil, err
		}
	}
	return true, w.vel, nil
}
