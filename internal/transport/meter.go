package transport

import (
	"sync"

	"socflow/internal/metrics"
)

// WithMetrics wraps a mesh so every successful Send/Recv counts its
// payload bytes and message into reg's transport.* counters. The
// counters are resolved once at wrap time — the per-message cost is
// two atomic adds. In either nesting with WithFaults, injected failures
// (which move no bytes) stay uncounted while straggler-delayed traffic
// still meters; metered nodes forward TickFault to the inner node, so
// either order also keeps fault clocks ticking.
//
// Control-plane vs. data-plane accounting: the heartbeat layer tags
// its own traffic into the transport.control.sent/recv.{bytes,msgs}
// counters (see WithHeartbeat). Stacking this decorator *outside* a
// HeartbeatMesh — WithMetrics(WithHeartbeat(...)) — therefore keeps
// transport.sent/recv.* measuring pure data-plane gradient payloads:
// beats never pass through the outer metered endpoints, and the
// per-frame tag/generation header the heartbeat layer adds is counted
// by neither side's data counters.
func WithMetrics(m Mesh, reg *metrics.Registry) Mesh {
	if reg == nil {
		return m
	}
	return &meteredMesh{
		inner:     m,
		nodes:     make([]*meteredNode, m.Size()),
		sentBytes: reg.Counter("transport.sent.bytes"),
		sentMsgs:  reg.Counter("transport.sent.msgs"),
		recvBytes: reg.Counter("transport.recv.bytes"),
		recvMsgs:  reg.Counter("transport.recv.msgs"),
	}
}

type meteredMesh struct {
	inner Mesh

	mu    sync.Mutex
	nodes []*meteredNode

	sentBytes, sentMsgs *metrics.Counter
	recvBytes, recvMsgs *metrics.Counter
}

// Size implements Mesh.
func (m *meteredMesh) Size() int { return m.inner.Size() }

// Close implements Mesh.
func (m *meteredMesh) Close() error { return m.inner.Close() }

// Node implements Mesh; endpoints are wrapped once and cached so
// repeated Node calls return the same metered endpoint.
func (m *meteredMesh) Node(i int) Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nodes[i] == nil {
		m.nodes[i] = &meteredNode{Node: m.inner.Node(i), mesh: m}
	}
	return m.nodes[i]
}

// meteredNode counts traffic around the embedded endpoint. Embedding
// promotes ID and Size.
type meteredNode struct {
	Node
	mesh *meteredMesh
}

// Send implements Node.
func (n *meteredNode) Send(to int, payload []byte) error {
	err := n.Node.Send(to, payload)
	if err == nil {
		n.mesh.sentBytes.Add(int64(len(payload)))
		n.mesh.sentMsgs.Inc()
	}
	return err
}

// Recv implements Node.
func (n *meteredNode) Recv(from int) ([]byte, error) {
	payload, err := n.Node.Recv(from)
	if err == nil {
		n.mesh.recvBytes.Add(int64(len(payload)))
		n.mesh.recvMsgs.Inc()
	}
	return payload, err
}

// TickFault forwards the fault clock to the inner node, so a metered
// mesh can sit outside a faulty one without silencing its triggers.
func (n *meteredNode) TickFault(epoch, iter int) {
	if t, ok := n.Node.(FaultTicker); ok {
		t.TickFault(epoch, iter)
	}
}
