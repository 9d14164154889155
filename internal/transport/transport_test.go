package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"socflow/internal/metrics"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	var fw frameWriter
	if _, err := fw.writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip %q", got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	var fw frameWriter
	if _, err := fw.writeFrame(&buf, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversize frame must be rejected on write")
	}
	// Corrupted length prefix on read.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversize frame must be rejected on read")
	}
}

func TestFrameShortRead(t *testing.T) {
	buf := bytes.NewBuffer([]byte{8, 0, 0, 0, 1, 2}) // announces 8 bytes, has 2
	if _, err := readFrame(bufio.NewReader(buf)); err == nil {
		t.Fatal("truncated frame must error")
	}
}

// readFrames reads every frame in b through the buffered frame reader,
// as a connection's reader goroutine does, checking that each frame is
// exactly the bytes its header announced. It returns how many input
// bytes the frames covered and the bytes allocated while reading.
func readFrames(t *testing.T, b []byte) (covered int, allocated uint64) {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(b))
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for {
		p, err := readFrame(r)
		if err != nil {
			break
		}
		if !bytes.Equal(p, b[covered+4:covered+4+len(p)]) || binary.LittleEndian.Uint32(b[covered:]) != uint32(len(p)) {
			t.Fatalf("frame at byte %d is not the %d bytes its header announced", covered, len(p))
		}
		covered += 4 + len(p)
	}
	goruntime.ReadMemStats(&after)
	return covered, after.TotalAlloc - before.TotalAlloc
}

// frameAllocBound is what reading len(b) bytes of frames may allocate:
// the reader's buffer, one frameChunk ahead of the data, and the
// doubling growth of a frame larger than that (at most four times its
// bytes), with slack for the runtime.
func frameAllocBound(n int) uint64 { return uint64(4*n + frameChunk + 4096 + 64<<10) }

// FuzzReadFrame: arbitrary bytes through the buffered frame reader yield
// whole frames and then an error, never a panic, and allocate in
// proportion to the bytes that arrived, not to what a header claims.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, allocated := readFrames(t, b); allocated > frameAllocBound(len(b)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(b), allocated)
		}
	})
}

// A frame larger than frameChunk grows as its bytes arrive and still
// reads back whole; a header claiming 64 MiB ahead of 100 KiB costs
// about what arrived.
func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	var buf bytes.Buffer
	var fw frameWriter
	big := make([]byte, 3*frameChunk+5)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if _, err := fw.writeFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	if covered, _ := readFrames(t, buf.Bytes()); covered != buf.Len() {
		t.Fatalf("read %d of %d bytes as frames", covered, buf.Len())
	}
	hostile := make([]byte, 4+100<<10)
	binary.LittleEndian.PutUint32(hostile, maxFrame)
	covered, allocated := readFrames(t, hostile)
	if covered != 0 || allocated > frameAllocBound(len(hostile)) {
		t.Fatalf("truncated 64 MiB claim: %d bytes read as frames, %d bytes allocated", covered, allocated)
	}
}

// meshOver is a two-node TCPMesh whose node 0 reaches node 1 over conn,
// for tests that control the far end of the link themselves.
func meshOver(conn net.Conn) *TCPMesh {
	m := &TCPMesh{n: 2, done: make(chan struct{}), opTimeout: DefaultOpTimeout, opRetries: DefaultOpRetries}
	m.nodes = []*tcpNode{newTCPNode(m, 0, 2), newTCPNode(m, 1, 2)}
	m.nodes[0].attach(1, conn)
	return m
}

// A steady-state Send of a small frame allocates nothing: the header
// and payload go out in one write through the link's reused frame
// writer. The peer end discards the bytes without allocating, so the
// count sees only Send.
func TestTCPSendDoesNotAllocate(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if c, err := l.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	m := meshOver(conn)
	defer m.Close()
	payload := make([]byte, 2400)
	if a := testing.AllocsPerRun(200, func() {
		if err := m.nodes[0].Send(1, payload); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Send of a %d-byte frame allocates %v times, want 0", len(payload), a)
	}
}

// A Send whose write times out is retried only while none of the
// frame's bytes reached the wire. Over an in-memory pipe nobody reads,
// every attempt times out untouched and is retried; once the peer has
// taken the header, a timeout mid-frame fails at once, because a resend
// would corrupt the peer's framing.
func TestTCPSendRetriesOnlyUntouchedFrames(t *testing.T) {
	for _, tc := range []struct {
		name        string
		peerReads   int           // bytes the peer takes before it stops reading
		deadline    time.Duration // long enough for the peer's reads under load
		wantRetries int64
	}{
		{"untouched", 0, 20 * time.Millisecond, 2},
		{"header out", 4, 500 * time.Millisecond, 0},
	} {
		near, far := net.Pipe()
		reg := metrics.New()
		m := meshOver(near)
		m.SetMetrics(reg)
		m.SetOpDeadline(tc.deadline, 2)
		taken := make(chan struct{})
		go func() {
			defer close(taken)
			io.ReadFull(far, make([]byte, tc.peerReads))
		}()
		err := m.nodes[0].Send(1, make([]byte, 64))
		<-taken
		if err == nil {
			t.Fatalf("%s: Send to a peer that stopped reading succeeded", tc.name)
		}
		if got := reg.Counter("transport.tcp.retries").Value(); got != tc.wantRetries {
			t.Errorf("%s: %d retries, want %d (%v)", tc.name, got, tc.wantRetries, err)
		}
		m.Close()
		far.Close()
	}
}

func TestChanMeshSendRecvOrdering(t *testing.T) {
	m := NewChanMesh(2)
	a, b := m.Node(0), m.Node(1)
	for i := byte(0); i < 10; i++ {
		if err := a.Send(1, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 10; i++ {
		msg, err := b.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if msg[0] != i {
			t.Fatalf("out of order: got %d want %d", msg[0], i)
		}
	}
}

func TestChanMeshCopiesPayload(t *testing.T) {
	m := NewChanMesh(2)
	buf := []byte{1, 2, 3}
	if err := m.Node(0).Send(1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // caller reuses its buffer
	msg, err := m.Node(1).Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if msg[0] != 1 {
		t.Fatal("Send must copy the payload")
	}
}

func TestChanMeshRejectsBadTargets(t *testing.T) {
	m := NewChanMesh(2)
	if err := m.Node(0).Send(0, nil); err == nil {
		t.Fatal("self-send must error")
	}
	if err := m.Node(0).Send(5, nil); err == nil {
		t.Fatal("out-of-range send must error")
	}
	if _, err := m.Node(0).Recv(0); err == nil {
		t.Fatal("self-recv must error")
	}
}

func TestTCPMeshBidirectionalTraffic(t *testing.T) {
	m, err := NewTCPMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	// Every ordered pair exchanges a message concurrently.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				if err := m.Node(i).Send(j, []byte{byte(10*i + j)}); err != nil {
					errs <- err
				}
			}(i, j)
		}
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			msg, err := m.Node(j).Recv(i)
			if err != nil {
				t.Fatal(err)
			}
			if msg[0] != byte(10*i+j) {
				t.Fatalf("wrong payload %d from %d->%d", msg[0], i, j)
			}
		}
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestTCPMeshLargePayload(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() { done <- m.Node(0).Send(1, big) }()
	msg, err := m.Node(1).Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(msg) != len(big) || msg[12345] != big[12345] {
		t.Fatal("large payload corrupted")
	}
}

func TestTCPMeshRecvAfterCloseErrors(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Node(0).Recv(1); err == nil {
		t.Fatal("recv on closed mesh must error")
	}
}

func TestTCPMeshDoubleCloseSafe(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("double close must be safe")
	}
}

// Regression: Send used to block forever on <-ready[to] if the mesh
// was torn down before the peer attached (a failed construction or an
// early Close). It must now observe the done channel and fail.
func TestTCPMeshSendBeforeAttachUnblocksOnClose(t *testing.T) {
	m := &TCPMesh{n: 2, done: make(chan struct{}), opTimeout: DefaultOpTimeout, opRetries: DefaultOpRetries}
	m.nodes = []*tcpNode{newTCPNode(m, 0, 2), newTCPNode(m, 1, 2)}
	errc := make(chan error, 1)
	go func() { errc <- m.Node(0).Send(1, []byte{1}) }()
	time.Sleep(10 * time.Millisecond) // let the send park on ready
	m.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrMeshClosed) {
			t.Fatalf("send = %v, want ErrMeshClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send still blocked after mesh close")
	}
}

func TestHandshakePeerValidation(t *testing.T) {
	frame := func(id uint32) *bytes.Reader {
		var hdr [4]byte
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
		return bytes.NewReader(hdr[:])
	}
	if p, err := handshakePeer(frame(2), 3); err != nil || p != 2 {
		t.Fatalf("valid handshake = (%d, %v)", p, err)
	}
	// An out-of-range announcement used to panic attach via conns[peer];
	// it must be rejected instead.
	if _, err := handshakePeer(frame(3), 3); err == nil {
		t.Fatal("peer == limit must be rejected")
	}
	if _, err := handshakePeer(frame(0xffffffff), 3); err == nil {
		t.Fatal("huge peer ID must be rejected")
	}
	if _, err := handshakePeer(bytes.NewReader([]byte{1, 2}), 3); err == nil {
		t.Fatal("truncated handshake must error")
	}
}

// A silent peer must not park Recv forever: the per-op deadline with
// bounded retries turns it into an error.
func TestTCPMeshRecvDeadlineExpires(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetOpDeadline(20*time.Millisecond, 1)
	start := time.Now()
	if _, err := m.Node(0).Recv(1); err == nil {
		t.Fatal("recv from a silent peer must hit the deadline")
	} else if errors.Is(err, ErrMeshClosed) {
		t.Fatalf("deadline error must not claim the mesh closed: %v", err)
	}
	// 20ms + 40ms backoff, plus slack: far below a hang.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v", elapsed)
	}
}

func TestTCPMeshSendAfterCloseErrors(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Node(0).Send(1, []byte{1}); !errors.Is(err, ErrMeshClosed) {
		t.Fatalf("send after close = %v, want ErrMeshClosed", err)
	}
	if _, err := m.Node(1).Recv(0); err == nil {
		t.Fatal("recv after close must error")
	}
}

// Mid-collective teardown: a Recv already parked on its inbox must
// unwind when the mesh closes underneath it.
func TestTCPMeshCloseUnblocksPendingRecv(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := m.Node(0).Recv(1)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	m.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("recv must error when the mesh closes")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv still blocked after mesh close")
	}
}

func TestTCPMeshSendRejectsOversizedPayload(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Node(0).Send(1, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized payload must be rejected before hitting the wire")
	}
}

func TestChanMeshClosedErrorsWrapSentinel(t *testing.T) {
	m := NewChanMesh(2)
	m.Close()
	if err := m.Node(0).Send(1, nil); !errors.Is(err, ErrMeshClosed) {
		t.Fatalf("send = %v, want ErrMeshClosed", err)
	}
	if _, err := m.Node(0).Recv(1); !errors.Is(err, ErrMeshClosed) {
		t.Fatalf("recv = %v, want ErrMeshClosed", err)
	}
}

func TestMeshValidation(t *testing.T) {
	if _, err := NewTCPMesh(0); err == nil {
		t.Fatal("zero-node TCP mesh must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-node chan mesh must panic")
		}
	}()
	NewChanMesh(0)
}
