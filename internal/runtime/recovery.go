package runtime

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"socflow/internal/metrics"
	autoplan "socflow/internal/plan"
	"socflow/internal/transport"
)

// Elastic recovery: the one way a mesh run survives a crash. Peers
// *observe* failures; nobody consults the fault plan to learn who is
// alive. Workers train in barrier-delimited rounds (one epoch per round)
// under one roundManager; a heartbeat failure detector declares silent
// members dead; a failed round is retried from the last
// good in-memory snapshot under a bounded budget; and when the cluster
// trace or the tide hands a SoC back, the manager re-admits it with a
// state transfer at the next epoch boundary. What differs between the
// data-parallel and pipeline tracks is only the roundPolicy that turns
// "membership + last round's outcome" into the next round.

// RecoveryConfig switches RunDistributed to the elastic path and tunes
// it. The zero value of each field picks a default suited to
// in-process meshes; raise the heartbeat knobs for real networks.
type RecoveryConfig struct {
	// HeartbeatInterval is how often every node beats every peer.
	// Default 3ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a node may stay silent before the
	// failure detector declares it dead. Default 150ms.
	HeartbeatTimeout time.Duration
	// MaxRetries bounds how many times one epoch may be retried after
	// detected failures before the run aborts. Default 3.
	MaxRetries int
	// RetryBackoff is the base pause before re-releasing a failed
	// epoch; attempt k waits k*RetryBackoff. Default 5ms.
	RetryBackoff time.Duration
	// Rejoins schedules re-admissions: Node returns at the boundary of
	// epoch Epoch. The node must be dead by then (a crash window whose
	// Until point is at or before (Epoch, 0)), or the entry is held
	// until it is.
	Rejoins []Rejoin
}

// Rejoin is one scheduled node return, typically derived from the
// tidal trace's preemption-end events.
type Rejoin struct {
	Node  int
	Epoch int
}

func (rc RecoveryConfig) withDefaults() RecoveryConfig {
	if rc.HeartbeatInterval <= 0 {
		rc.HeartbeatInterval = 3 * time.Millisecond
	}
	if rc.HeartbeatTimeout <= 0 {
		rc.HeartbeatTimeout = 150 * time.Millisecond
	}
	if rc.MaxRetries <= 0 {
		rc.MaxRetries = 3
	}
	if rc.RetryBackoff <= 0 {
		rc.RetryBackoff = 5 * time.Millisecond
	}
	return rc
}

// RecoveryStats summarizes what the elastic machinery did during a
// run.
type RecoveryStats struct {
	// Detections is how many workers the heartbeat detector declared
	// dead.
	Detections int
	// Rejoins is how many scheduled returns were admitted.
	Rejoins int
	// Retries is how many epoch retries were released.
	Retries int
	// MembershipEpoch is the final membership version: it increments
	// on every detected departure and every admission.
	MembershipEpoch int
	// StateTransferBytes is the total serialized state shipped to
	// rejoining nodes.
	StateTransferBytes int64
}

// round is one released training round: an (epoch, attempt) pair with
// a frozen membership view every participant shares.
type round struct {
	seq     int
	epoch   int
	attempt int
	// restore tells participants holding boundary state to roll back to
	// the start of epoch before training (retry rounds).
	restore bool
	gen     uint32
	// groups[g] lists group g's training participants (empty for
	// extinct groups): the live members on the data-parallel track, the
	// placed stage nodes in stage order on the pipeline track. Frozen
	// for the round: collectives use it instead of re-deriving
	// membership per iteration.
	groups [][]int
	// plan is the plan the round executes: the run's own on the
	// data-parallel track, the incumbent after any re-plan on the
	// pipeline track.
	plan *autoplan.Plan
	// transfer maps each participant without boundary state to the node
	// that serves it at round start. A sender that trains nowhere takes
	// part in the round solely to serve and then returns to the barrier.
	transfer map[int]int
	// parts is every participant: trainers, then non-training senders.
	parts  []int
	failed bool
}

func (r *round) has(node int) bool { return rankOf(node, r.parts) >= 0 }

// receivers returns the nodes sender serves this round, ascending —
// the send order.
func (r *round) receivers(sender int) []int {
	var out []int
	for to, from := range r.transfer {
		if from == sender {
			out = append(out, to)
		}
	}
	sort.Ints(out)
	return out
}

// leaders returns the first member of every group that still has one;
// the first entry is the global leader, which evaluates and reports.
func (r *round) leaders() []int {
	out := make([]int, 0, len(r.groups))
	for _, members := range r.groups {
		if len(members) > 0 {
			out = append(out, members[0])
		}
	}
	return out
}

// roundPolicy is what differs between the tracks: how the next round's
// membership, plan, and state transfers follow from the manager's
// membership sets. Every method runs under the manager's lock.
type roundPolicy interface {
	// build fills r.groups, r.plan and r.transfer for the round about
	// to release; an error is fatal for the run.
	build(m *roundManager, r *round) error
	// changed reports that node x left (detected dead, reclaimed) or
	// was re-admitted, with the trigger "crash", "resize" or "rejoin".
	changed(x int, trigger string, left bool)
	// commit seals a round every participant finished.
	commit(m *roundManager, r *round)
}

// roundManager supervises elastic workers on either track: the
// generation barrier between rounds, the heartbeat supervisor that
// turns silence into membership changes, retry accounting, the rejoin
// schedule, and tidal resizes.
type roundManager struct {
	rc      RecoveryConfig
	epochs  int
	hb      *transport.HeartbeatMesh
	reg     *metrics.Registry
	policy  roundPolicy
	workers []int          // node IDs hosting workers, ascending
	spawnFn func(node int) // respawns a re-admitted node's worker goroutine

	mu      sync.Mutex
	cond    *sync.Cond
	arrived map[int]bool
	dead    map[int]bool
	// reclaimed marks dead nodes taken by a tidal shrink; only these
	// are handed back on a grow, and never by the rejoin schedule.
	reclaimed map[int]bool
	// joining maps an admitted returner to the epoch it is due. The
	// supervisor gives it grace until a round includes it — it was just
	// revived and its first beats are still in flight — and both policies
	// keep it parked at the barrier until a round of that epoch (or
	// later) releases: a failure elsewhere may retroactively turn the next
	// release into a retry of an *earlier* epoch, which the joiner must
	// sit out.
	joining map[int]int
	// stateful is the set of nodes holding the last committed epoch
	// boundary's aggregated model (initially all: epoch 0 state is the
	// shared seed init). Trainers outside it receive state by transfer.
	stateful   map[int]bool
	rejoinUsed []bool
	cur        *round
	pending    bool // a delayed retry release is armed
	fatal      error
	done       bool
	closed     bool
	stats      RecoveryStats

	stop chan struct{}
	wg   sync.WaitGroup
}

func newRoundManager(epochs int, rc RecoveryConfig, hb *transport.HeartbeatMesh, reg *metrics.Registry,
	workers []int, policy roundPolicy) *roundManager {

	m := &roundManager{
		rc:         rc,
		epochs:     epochs,
		hb:         hb,
		reg:        reg,
		policy:     policy,
		workers:    workers,
		arrived:    make(map[int]bool),
		dead:       make(map[int]bool),
		reclaimed:  make(map[int]bool),
		joining:    make(map[int]int),
		stateful:   make(map[int]bool, len(workers)),
		rejoinUsed: make([]bool, len(rc.Rejoins)),
		stop:       make(chan struct{}),
	}
	for _, x := range workers {
		m.stateful[x] = true
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// start launches the supervisor loop that polls the failure detector
// and, when resizes is non-nil, the loop that consumes tidal capacity
// targets until the channel or the manager closes.
func (m *roundManager) start(resizes <-chan int) {
	period := m.rc.HeartbeatTimeout / 4
	if period < m.rc.HeartbeatInterval {
		period = m.rc.HeartbeatInterval
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case target, ok := <-resizes:
				if !ok {
					resizes = nil
					continue
				}
				m.applyResize(target)
			case <-tick.C:
				m.superviseOnce()
			}
		}
	}()
}

// superviseOnce takes one failure-detector reading: any monitored
// worker silent past the timeout is declared dead. Admitted returners
// are exempt until a round includes them.
func (m *roundManager) superviseOnce() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.done || m.fatal != nil {
		return
	}
	for _, x := range m.workers {
		if m.dead[x] {
			continue
		}
		if _, j := m.joining[x]; j && (m.cur == nil || !m.cur.has(x)) {
			continue
		}
		if !m.hb.Alive(x) {
			m.writeOutLocked(x, "crash")
		}
	}
	m.checkReadyLocked()
}

// close wakes every waiter and stops supervision. Safe to call more
// than once.
func (m *roundManager) close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.stop)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

func (m *roundManager) addTransferBytes(n int64) {
	m.mu.Lock()
	m.stats.StateTransferBytes += n
	m.mu.Unlock()
	m.reg.Counter("recovery.statetransfer.bytes").Add(n)
}

// next is the worker-facing barrier. The worker reports how its last
// round ended (last == nil on first call; err != nil for a recoverable
// failure), then blocks until a newer round that includes it releases;
// spares no round includes simply keep waiting. Returns (nil, nil) when
// training is complete or the worker has been written out of the
// membership — detected dead (even wrongly: a false positive under a
// too-tight timeout) or reclaimed by the tide; the run continues
// without it. A non-nil error is fatal for the worker.
func (m *roundManager) next(me int, last *round, lastErr error) (*round, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if last != nil && lastErr != nil {
		m.markFailedLocked(last, lastErr)
	}
	want := 1
	if last != nil {
		want = last.seq + 1
	}
	m.arrived[me] = true
	m.checkReadyLocked()
	for {
		switch {
		case m.fatal != nil:
			return nil, m.fatal
		case m.closed:
			return nil, fmt.Errorf("runtime: recovery manager closed: %w", transport.ErrMeshClosed)
		case m.done || m.dead[me]:
			return nil, nil
		}
		if m.cur != nil && m.cur.seq >= want && m.cur.has(me) {
			return m.cur, nil
		}
		m.cond.Wait()
	}
}

// ready reports whether node x may train a round of epoch: alive, and
// not a returner due later — one that stays parked at the barrier, as it
// has no state to retry an earlier epoch with (and the crash window that
// took it down may still cover that epoch).
func (m *roundManager) ready(x, epoch int) bool {
	due, joining := m.joining[x]
	return !m.dead[x] && !(joining && due > epoch)
}

// writeOutLocked removes node x from the membership — declared dead by
// the heartbeat supervisor (trigger "crash") or reclaimed by the tide
// ("resize"): the membership epoch bumps, peers stop beating it, the
// policy hears of it, and the current round (if x is in it) fails.
func (m *roundManager) writeOutLocked(x int, trigger string) {
	if m.dead[x] {
		return
	}
	m.dead[x] = true
	delete(m.joining, x)
	m.stats.MembershipEpoch++
	m.hb.MarkDead(x)
	epoch := 0
	if m.cur != nil {
		epoch = m.cur.epoch
	}
	cause := "missed heartbeats"
	if trigger == "resize" {
		cause = "reclaimed by tide"
		m.reclaimed[x] = true
		m.reg.Counter("recovery.reclaims").Inc()
		m.reg.Emit(metrics.Event{Kind: metrics.KindResize, Epoch: epoch, Node: x, Detail: "reclaimed"})
	} else {
		m.stats.Detections++
		m.reg.Counter("recovery.detections").Inc()
		m.reg.Emit(metrics.Event{Kind: metrics.KindDetect, Epoch: epoch, Node: x, Detail: cause})
	}
	m.reg.Gauge("recovery.membership.epoch").Set(float64(m.stats.MembershipEpoch))
	m.policy.changed(x, trigger, true)
	if m.cur != nil && m.cur.has(x) {
		m.markFailedLocked(m.cur, fmt.Errorf("worker %d %s", x, cause))
	}
	m.cond.Broadcast()
}

// admitLocked returns dead node x to the membership, due at epoch due:
// transports revived (any scripted crash window that took it down has
// ended by its return epoch, so its fault clock moves past it), a fresh
// worker goroutine spawned — its state is the seed init, so it re-enters
// rounds by state transfer — and the policy told.
func (m *roundManager) admitLocked(x, due int, trigger string) {
	delete(m.dead, x)
	delete(m.reclaimed, x)
	delete(m.stateful, x)
	m.joining[x] = due
	m.stats.Rejoins++
	m.stats.MembershipEpoch++
	nextEpoch, _, _ := m.nextParams()
	if t, ok := m.hb.Node(x).(transport.FaultTicker); ok {
		t.TickFault(nextEpoch, 0)
	}
	m.hb.MarkAlive(x) // grace before first beats
	m.hb.ResetStreams(x)
	m.reg.Counter("recovery.rejoins").Inc()
	m.reg.Gauge("recovery.membership.epoch").Set(float64(m.stats.MembershipEpoch))
	m.reg.Emit(metrics.Event{Kind: metrics.KindRejoin, Epoch: nextEpoch, Node: x, Detail: trigger})
	m.policy.changed(x, trigger, false)
	if m.spawnFn != nil {
		m.spawnFn(x)
	}
}

// applyResize reconciles the usable fleet with a tidal capacity target:
// shrinks reclaim the highest-numbered usable SoCs, grows hand back the
// lowest-numbered reclaimed ones.
func (m *roundManager) applyResize(target int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.done || m.fatal != nil {
		return
	}
	target = min(max(target, 0), len(m.workers))
	usable := len(m.workers) - len(m.dead)
	for i := len(m.workers) - 1; i >= 0 && usable > target; i-- {
		if x := m.workers[i]; !m.dead[x] {
			m.writeOutLocked(x, "resize")
			usable--
		}
	}
	nextEpoch, _, _ := m.nextParams()
	for i := 0; i < len(m.workers) && usable < target; i++ {
		if x := m.workers[i]; m.reclaimed[x] {
			m.admitLocked(x, nextEpoch, "resize")
			usable++
		}
	}
	m.checkReadyLocked()
}

// markFailedLocked marks a round failed once, charges the retry
// budget, and interrupts its participants so they unwind to the
// barrier.
func (m *roundManager) markFailedLocked(r *round, cause error) {
	if r != m.cur || r.failed || m.closed || m.fatal != nil {
		return
	}
	r.failed = true
	// Every participant, survivor or not: a worker parked in a
	// collective can only observe the outcome — retry, fatal, or its own
	// write-out — from the barrier. A written-out node whose goroutine
	// is healthy (tide reclaim, heartbeat false positive) may be parked
	// on a *live* peer that has moved on, and nothing else would ever
	// wake it.
	for _, p := range r.parts {
		m.hb.Interrupt(p, transport.ErrRoundAborted)
	}
	if r.attempt+1 > m.rc.MaxRetries {
		m.failLocked(fmt.Errorf("runtime: epoch %d retry budget exhausted after %d attempts: %w",
			r.epoch, r.attempt+1, cause))
		return
	}
	m.cond.Broadcast()
}

// failLocked records a fatal error and wakes everyone.
func (m *roundManager) failLocked(err error) {
	if m.fatal == nil {
		m.fatal = err
	}
	m.cond.Broadcast()
}

// nextParams derives the (epoch, attempt, restore) of the round that
// should release next from the current round's outcome.
func (m *roundManager) nextParams() (epoch, attempt int, restore bool) {
	switch {
	case m.cur == nil:
		return 0, 0, false
	case m.cur.failed:
		return m.cur.epoch, m.cur.attempt + 1, true
	default:
		return m.cur.epoch + 1, 0, false
	}
}

// allArrivedLocked reports whether every worker still in the
// membership has reached the barrier.
func (m *roundManager) allArrivedLocked() bool {
	for _, x := range m.workers {
		if !m.dead[x] && !m.arrived[x] {
			return false
		}
	}
	return true
}

// checkReadyLocked is the barrier's readiness engine: it admits due
// rejoins, and when every expected participant of the next round has
// arrived it releases the round (after a backoff for retries).
func (m *roundManager) checkReadyLocked() {
	if m.closed || m.done || m.fatal != nil || m.pending {
		return
	}
	nextEpoch, attempt, _ := m.nextParams()
	if m.cur != nil && !m.cur.failed && nextEpoch >= m.epochs {
		// The current round was the last epoch; once all its survivors
		// account for themselves, seal it and finish.
		if m.allArrivedLocked() {
			m.releaseLocked()
		}
		return
	}
	// Due scheduled returns; each entry fires at most once.
	for i, rj := range m.rc.Rejoins {
		if !m.rejoinUsed[i] && m.dead[rj.Node] && !m.reclaimed[rj.Node] && rj.Epoch <= nextEpoch {
			m.rejoinUsed[i] = true
			m.admitLocked(rj.Node, rj.Epoch, "rejoin")
		}
	}
	if len(m.dead) == len(m.workers) {
		// No live worker can ever arrive: the run is unrecoverable.
		m.failLocked(fmt.Errorf("runtime: no live workers remain at epoch %d", nextEpoch))
		return
	}
	if !m.allArrivedLocked() {
		return
	}
	if attempt > 0 {
		m.pending = true
		time.AfterFunc(time.Duration(attempt)*m.rc.RetryBackoff, func() {
			m.mu.Lock()
			m.pending = false
			if !m.closed && m.fatal == nil && m.allArrivedLocked() {
				m.releaseLocked()
			}
			m.mu.Unlock()
		})
		return
	}
	m.releaseLocked()
}

// releaseLocked seals the previous round if it succeeded, then has the
// policy build the next one and publishes it: interrupts cleared,
// generation stamped, participants let through the barrier.
func (m *roundManager) releaseLocked() {
	epoch, attempt, restore := m.nextParams()
	seq := 1
	if m.cur != nil {
		seq = m.cur.seq + 1
		if !m.cur.failed {
			// Its trainers hold the new boundary state and are full
			// members; anyone else now needs a transfer to train.
			m.stateful = make(map[int]bool)
			for _, members := range m.cur.groups {
				for _, x := range members {
					m.stateful[x] = true
					delete(m.joining, x)
				}
			}
			m.policy.commit(m, m.cur)
		}
	}
	if epoch >= m.epochs {
		m.done = true
		m.cond.Broadcast()
		return
	}
	r := &round{seq: seq, epoch: epoch, attempt: attempt, restore: restore, gen: uint32(seq), transfer: make(map[int]int)}
	if err := m.policy.build(m, r); err != nil {
		m.failLocked(err)
		return
	}
	for _, members := range r.groups {
		r.parts = append(r.parts, members...)
	}
	for _, from := range r.transfer {
		if !r.has(from) {
			r.parts = append(r.parts, from)
		}
	}
	for _, p := range r.parts {
		m.hb.Resume(p)
		m.hb.SetGeneration(p, r.gen)
	}
	if attempt > 0 {
		m.stats.Retries++
		m.reg.Counter("recovery.retries").Inc()
		m.reg.Emit(metrics.Event{Kind: metrics.KindRetry, Epoch: epoch, Iter: attempt})
	}
	// Only the round's participants leave the barrier; anyone parked (a
	// spare, a not-yet-due joiner) stays arrived for the next release.
	for _, p := range r.parts {
		delete(m.arrived, p)
	}
	m.cur = r
	m.cond.Broadcast()
}
