package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"socflow/internal/metrics"
)

// Control-plane heartbeat layer. WithHeartbeat wraps a mesh so every
// node continuously beats every peer over the same links the data
// plane uses; a peer that misses Timeout worth of beats is observably
// dead — no consultation of the shared FaultPlan required. This is the
// failure detector the elastic runtime builds on: the plan still
// *causes* faults (innermost decorator), but survivors *detect* them
// from silence, the way a real SoC cluster learns a member was
// preempted.
//
// Wire format: the layer owns the raw frame and prepends a 1-byte tag.
//
//	beat frame: [hbBeat]
//	data frame: [hbData][4-byte little-endian generation][payload]
//
// Per directed link, a pump goroutine drains the inner endpoint,
// refreshes the peer's liveness on *any* frame (beats and data both
// prove life), and parks data in a per-peer mailbox. Recv pops from
// the mailbox, dropping frames whose generation differs from the
// node's current one — stale traffic from an aborted round cannot leak
// into the retry. The recovery manager owns generations, interrupts,
// and the dead set; see internal/runtime.
type HeartbeatMesh struct {
	inner    Mesh
	interval time.Duration
	timeout  time.Duration
	nodes    []*hbNode
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup

	// heard[observer][subject] is the unix-nano timestamp of the last
	// frame observer received from subject.
	heard [][]atomic.Int64

	deadMu sync.Mutex
	dead   map[int]bool

	ctlSentB, ctlSentM *metrics.Counter
	ctlRecvB, ctlRecvM *metrics.Counter
}

// ErrPeerDead marks a fast-failed operation against a peer the
// recovery manager has declared dead; errors.Is-able.
var ErrPeerDead = errors.New("transport: peer declared dead")

// ErrRoundAborted is the interrupt error the recovery manager injects
// into live workers when a round must be abandoned; errors.Is-able.
var ErrRoundAborted = errors.New("transport: training round aborted")

const (
	hbData byte = 0x00
	hbBeat byte = 0x01
)

// WithHeartbeat wraps mesh with the control-plane heartbeat layer.
// Every node beats every peer each interval; a subject whose newest
// frame (seen by any observer) is older than timeout fails Alive.
// Control-plane traffic is tagged into reg's transport.control.*
// counters, separate from the data-plane transport.sent/recv.*
// counters — stack WithMetrics *outside* this layer so the data
// counters keep measuring pure gradient payloads.
func WithHeartbeat(mesh Mesh, interval, timeout time.Duration, reg *metrics.Registry) *HeartbeatMesh {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	if timeout <= 0 {
		timeout = 25 * interval
	}
	n := mesh.Size()
	hm := &HeartbeatMesh{
		inner:    mesh,
		interval: interval,
		timeout:  timeout,
		nodes:    make([]*hbNode, n),
		done:     make(chan struct{}),
		heard:    make([][]atomic.Int64, n),
		dead:     make(map[int]bool),
		ctlSentB: reg.Counter("transport.control.sent.bytes"),
		ctlSentM: reg.Counter("transport.control.sent.msgs"),
		ctlRecvB: reg.Counter("transport.control.recv.bytes"),
		ctlRecvM: reg.Counter("transport.control.recv.msgs"),
	}
	now := time.Now().UnixNano()
	for i := range hm.heard {
		hm.heard[i] = make([]atomic.Int64, n)
		for j := range hm.heard[i] {
			hm.heard[i][j].Store(now)
		}
	}
	for i := 0; i < n; i++ {
		node := &hbNode{
			mesh:   hm,
			inner:  mesh.Node(i),
			id:     i,
			boxes:  make([]*mailbox, n),
			intrCh: make(chan struct{}),
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			node.boxes[j] = &mailbox{notify: make(chan struct{}, 1)}
		}
		hm.nodes[i] = node
	}
	for _, node := range hm.nodes {
		for j := 0; j < n; j++ {
			if j == node.id {
				continue
			}
			node.boxes[j].pumpLive.Store(true)
			hm.wg.Add(2)
			go hm.pump(node, j)
			go hm.beat(node, j)
		}
	}
	return hm
}

// Size implements Mesh.
func (hm *HeartbeatMesh) Size() int { return hm.inner.Size() }

// Node implements Mesh.
func (hm *HeartbeatMesh) Node(i int) Node { return hm.nodes[i] }

// Close implements Mesh: it stops beating, closes the inner mesh
// (which unblocks the pumps), and wakes every parked Recv with
// ErrMeshClosed.
func (hm *HeartbeatMesh) Close() error {
	var err error
	hm.once.Do(func() {
		close(hm.done)
		err = hm.inner.Close()
		hm.wg.Wait()
	})
	return err
}

// Timeout returns the liveness timeout the mesh was built with.
func (hm *HeartbeatMesh) Timeout() time.Duration { return hm.timeout }

// Alive reports whether any observer has heard from subject within the
// liveness timeout. It is the failure detector's verdict: purely
// observational, never consulting the fault plan.
func (hm *HeartbeatMesh) Alive(subject int) bool {
	var newest int64
	for obs := range hm.heard {
		if obs == subject {
			continue
		}
		if t := hm.heard[obs][subject].Load(); t > newest {
			newest = t
		}
	}
	return time.Since(time.Unix(0, newest)) <= hm.timeout
}

// MarkDead records the manager's verdict that a node is gone: its
// peers stop beating it and fast-fail data sends to it with
// ErrPeerDead instead of filling buffers a dead endpoint will never
// drain.
func (hm *HeartbeatMesh) MarkDead(node int) {
	hm.deadMu.Lock()
	hm.dead[node] = true
	hm.deadMu.Unlock()
}

// MarkAlive clears a node's dead mark at rejoin and refreshes every
// observer's record of it, granting the returning node a full timeout
// of grace before the failure detector may judge it again.
func (hm *HeartbeatMesh) MarkAlive(node int) {
	hm.deadMu.Lock()
	delete(hm.dead, node)
	hm.deadMu.Unlock()
	now := time.Now().UnixNano()
	for obs := range hm.heard {
		if obs != node {
			hm.heard[obs][node].Store(now)
		}
	}
}

func (hm *HeartbeatMesh) isDead(node int) bool {
	hm.deadMu.Lock()
	defer hm.deadMu.Unlock()
	return hm.dead[node]
}

// Interrupt aborts node's in-flight and future transport operations
// with err (typically ErrRoundAborted) until Resume. Blocked Recvs
// wake immediately; the worker unwinds to the recovery barrier.
func (hm *HeartbeatMesh) Interrupt(node int, err error) { hm.nodes[node].interrupt(err) }

// Resume clears a node's interrupt before the next round is released.
func (hm *HeartbeatMesh) Resume(node int) { hm.nodes[node].resume() }

// SetGeneration stamps the round generation a node's data frames carry
// and its Recv accepts. The manager sets all live nodes' generations
// while they are parked at the barrier, so no data frame of the new
// round can be emitted before every member has moved to it.
func (hm *HeartbeatMesh) SetGeneration(node int, gen uint32) { hm.nodes[node].gen.Store(gen) }

// ResetStreams clears a rejoining node's mailboxes (dropping stale
// frames and stream errors from its dead period) and respawns any pump
// whose inner Recv died while the node's endpoint was crashed. Call
// only after the node's transport works again (its fault window ended).
func (hm *HeartbeatMesh) ResetStreams(node int) {
	n := hm.nodes[node]
	for from, box := range n.boxes {
		if box == nil {
			continue
		}
		box.reset()
		if box.pumpLive.CompareAndSwap(false, true) {
			hm.wg.Add(1)
			go hm.pump(n, from)
		}
	}
}

// pump drains node's inner endpoint for frames from one peer,
// refreshing liveness and sorting data into the mailbox. It exits on
// the first inner error (mesh closed, injected crash, dead link),
// recording the error as the stream's terminal state.
func (hm *HeartbeatMesh) pump(n *hbNode, from int) {
	defer hm.wg.Done()
	box := n.boxes[from]
	for {
		payload, err := n.inner.Recv(from)
		if err != nil {
			box.pumpLive.Store(false)
			box.fail(err)
			return
		}
		hm.heard[n.id][from].Store(time.Now().UnixNano())
		if len(payload) == 0 {
			continue
		}
		switch payload[0] {
		case hbBeat:
			hm.ctlRecvB.Add(int64(len(payload)))
			hm.ctlRecvM.Inc()
		case hbData:
			if len(payload) < 5 {
				continue
			}
			gen := binary.LittleEndian.Uint32(payload[1:5])
			box.push(gen, payload[5:])
		}
	}
}

// beat sends one heartbeat frame to a peer per interval. Send errors
// are ignored — a dead peer's silence is what the detector measures —
// and beating pauses while the peer is marked dead so buffers to a
// never-draining endpoint cannot fill and block.
func (hm *HeartbeatMesh) beat(n *hbNode, to int) {
	defer hm.wg.Done()
	tick := time.NewTicker(hm.interval)
	defer tick.Stop()
	frame := []byte{hbBeat}
	for {
		select {
		case <-hm.done:
			return
		case <-tick.C:
		}
		if hm.isDead(to) || hm.isDead(n.id) {
			continue
		}
		if err := n.inner.Send(to, frame); err == nil {
			hm.ctlSentB.Add(int64(len(frame)))
			hm.ctlSentM.Inc()
		}
	}
}

// hbNode is one endpoint of a HeartbeatMesh.
type hbNode struct {
	mesh  *HeartbeatMesh
	inner Node
	id    int
	gen   atomic.Uint32
	boxes []*mailbox

	intrMu sync.Mutex
	intr   error
	intrCh chan struct{} // closed while interrupted; replaced on resume
}

// ID implements Node.
func (n *hbNode) ID() int { return n.id }

// Size implements Node.
func (n *hbNode) Size() int { return n.inner.Size() }

// TickFault forwards the fault clock to the inner endpoint so the
// heartbeat layer can sit outside WithFaults.
func (n *hbNode) TickFault(epoch, iter int) {
	if t, ok := n.inner.(FaultTicker); ok {
		t.TickFault(epoch, iter)
	}
}

func (n *hbNode) interrupt(err error) {
	n.intrMu.Lock()
	defer n.intrMu.Unlock()
	if n.intr == nil {
		n.intr = err
		close(n.intrCh)
	}
}

func (n *hbNode) resume() {
	n.intrMu.Lock()
	defer n.intrMu.Unlock()
	if n.intr != nil {
		n.intr = nil
		n.intrCh = make(chan struct{})
	}
}

func (n *hbNode) interruptState() (error, chan struct{}) {
	n.intrMu.Lock()
	defer n.intrMu.Unlock()
	return n.intr, n.intrCh
}

// Send implements Node: it stamps the payload with the current round
// generation and fast-fails against declared-dead peers.
func (n *hbNode) Send(to int, payload []byte) error {
	if err, _ := n.interruptState(); err != nil {
		return fmt.Errorf("node %d send to %d: %w", n.id, to, err)
	}
	if n.mesh.isDead(to) {
		return fmt.Errorf("node %d send to %d: %w", n.id, to, ErrPeerDead)
	}
	frame := make([]byte, 5+len(payload))
	frame[0] = hbData
	binary.LittleEndian.PutUint32(frame[1:5], n.gen.Load())
	copy(frame[5:], payload)
	return n.inner.Send(to, frame)
}

// Recv implements Node: it pops the next current-generation frame from
// the peer's mailbox. It unblocks — never hangs — on mesh close
// (ErrMeshClosed), manager interrupt (the interrupt error), a declared-
// dead peer (ErrPeerDead), or the stream's terminal error.
func (n *hbNode) Recv(from int) ([]byte, error) {
	box := n.boxes[from]
	if box == nil {
		return nil, fmt.Errorf("transport: node %d cannot recv from %d", n.id, from)
	}
	for {
		cur := n.gen.Load()
		payload, serr, ok := box.pop(cur)
		if ok {
			return payload, nil
		}
		if serr != nil {
			return nil, serr
		}
		if ierr, _ := n.interruptState(); ierr != nil {
			return nil, fmt.Errorf("node %d recv from %d: %w", n.id, from, ierr)
		}
		if n.mesh.isDead(from) {
			return nil, fmt.Errorf("node %d recv from %d: %w", n.id, from, ErrPeerDead)
		}
		_, intrCh := n.interruptState()
		select {
		case <-box.notify:
		case <-intrCh:
		case <-n.mesh.done:
			return nil, fmt.Errorf("%w while %d recvs from %d", ErrMeshClosed, n.id, from)
		}
	}
}

type hbFrame struct {
	gen     uint32
	payload []byte
}

// mailbox queues one peer's data frames for one receiver. Single
// consumer (the owning worker); single producer (the pump).
type mailbox struct {
	mu       sync.Mutex
	q        []hbFrame
	err      error
	notify   chan struct{}
	pumpLive atomic.Bool
}

func (b *mailbox) push(gen uint32, payload []byte) {
	b.mu.Lock()
	b.q = append(b.q, hbFrame{gen: gen, payload: payload})
	b.mu.Unlock()
	b.signal()
}

func (b *mailbox) fail(err error) {
	b.mu.Lock()
	b.err = err
	b.mu.Unlock()
	b.signal()
}

func (b *mailbox) reset() {
	b.mu.Lock()
	b.q = nil
	b.err = nil
	b.mu.Unlock()
}

func (b *mailbox) signal() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// pop returns the first frame stamped with generation cur, discarding
// older (aborted-round) frames. A frame from a *newer* generation is
// impossible at a well-gated call site — the barrier moves everyone to
// a generation before anyone sends in it — so any mismatch is stale.
func (b *mailbox) pop(cur uint32) ([]byte, error, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.q) > 0 {
		f := b.q[0]
		b.q = b.q[1:]
		if f.gen == cur {
			return f.payload, nil, true
		}
	}
	return nil, b.err, false
}
