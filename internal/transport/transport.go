// Package transport provides the point-to-point messaging layer the
// distributed runtime runs on, mirroring the paper's prototype ("all
// the network communication, including Ring-AllReduce, parameter
// server, and federated learning, are implemented over TCP protocol").
//
// Two Mesh implementations share one interface: TCPMesh connects every
// pair of nodes over loopback TCP with length-prefixed framing — the
// realistic path — and ChanMesh uses in-process channels for fast,
// fully deterministic tests. The runtime is written against Mesh and
// works identically on both.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// ErrMeshClosed is wrapped by every Send/Recv error caused by mesh
// teardown, so callers can distinguish an orderly shutdown (first-error
// teardown, cancellation) from a transport fault with errors.Is.
var ErrMeshClosed = errors.New("transport: mesh closed")

// Node is one endpoint's view of the mesh.
//
// Buffers: a caller may reuse Send's payload as soon as Send returns
// (every implementation has copied or written it by then), and the
// slice Recv returns belongs to the caller, which may keep or modify it.
type Node interface {
	// ID returns this node's index in [0, Size).
	ID() int
	// Size returns the number of nodes in the mesh.
	Size() int
	// Send delivers a message to peer `to`. Messages between a pair of
	// nodes are ordered; Send may block until the peer consumes
	// backlog.
	Send(to int, payload []byte) error
	// Recv returns the next message from peer `from`, blocking until
	// one arrives.
	Recv(from int) ([]byte, error)
}

// Mesh is a fully connected group of nodes.
type Mesh interface {
	// Node returns endpoint i.
	Node(i int) Node
	// Size returns the node count.
	Size() int
	// Close tears down all links.
	Close() error
}

// maxFrame bounds a single message (64 MiB), a sanity guard against
// corrupted length prefixes.
const maxFrame = 64 << 20

// frameChunk is the most readFrame allocates ahead of the bytes that
// have arrived: a frame's length prefix is the peer's claim, so larger
// payloads grow with what the connection actually delivers.
const frameChunk = 64 << 10

// frameWriter writes length-prefixed frames, header and payload in one
// Write: on a TCP connection a net.Buffers write is one writev. Its
// fields are reused frame to frame, so a steady-state write allocates
// nothing; one frameWriter serves one connection under its write lock.
type frameWriter struct {
	hdr  [4]byte
	iov  [2][]byte
	bufs net.Buffers // iov[:], consumed by the write
}

// writeFrame writes payload as one frame and returns how many bytes
// reached w, header included.
func (f *frameWriter) writeFrame(w io.Writer, payload []byte) (int64, error) {
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(f.hdr[:], uint32(len(payload)))
	f.iov = [2][]byte{f.hdr[:], payload}
	f.bufs = f.iov[:]
	n, err := f.bufs.WriteTo(w)
	f.iov[1] = nil // keep no reference to the caller's payload
	return n, err
}

// readFrame reads one length-prefixed frame into a fresh slice, the
// only allocation of a frame: the header is peeked out of r's buffer.
// The allocation follows the bytes that arrive, frameChunk at a time
// and then doubling, so a hostile header costs at most about four times
// what its sender actually sent.
func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	r.Discard(4)
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, min(n, frameChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, payload[got:])
		if err != nil {
			return nil, err
		}
		if got += k; got == n {
			return payload, nil
		}
		payload = append(payload, make([]byte, min(n-got, got))...)
	}
}
