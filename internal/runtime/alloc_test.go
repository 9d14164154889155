package runtime

import (
	"sync"
	"testing"

	"socflow/internal/nn"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// loopNode hands every Send back to the next Recv through one reused
// buffer and allocates nothing itself, so an allocation count around
// its caller sees only the caller's own.
type loopNode struct {
	id  int
	buf []byte
}

func (n *loopNode) ID() int   { return n.id }
func (n *loopNode) Size() int { return 8 }

func (n *loopNode) Send(_ int, payload []byte) error {
	n.buf = append(n.buf[:0], payload...)
	return nil
}

func (n *loopNode) Recv(int) ([]byte, error) { return n.buf, nil }

// lenet5Params is the length of a LeNet-5 gradient, mesh-dp's ring
// vector.
func lenet5Params() int {
	total := 0
	for _, w := range nn.MustSpec("lenet5").BuildMicro(tensor.NewRNG(1), 1, 8, 10).Weights() {
		total += w.Size()
	}
	return total
}

// One ring all-reduce over four members allocates at most its one frame
// buffer: chunks are encoded into it and received chunks are added or
// decoded straight into the vector. The loop node stands in for the
// mesh, whose receive frames are not the collective's.
func TestRingAllReduceAllocs(t *testing.T) {
	node := &loopNode{id: 1}
	data := make([]float32, 4*(lenet5Params()/4))
	members := []int{0, 1, 2, 3}
	if a := testing.AllocsPerRun(100, func() {
		if err := RingAllReduceAverage(node, members, data); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Fatalf("RingAllReduceAverage allocates %v times per call, want <= 1", a)
	}
}

// After the first micro-batch, a stage relay's encode and decode reuse
// their frame buffer and destination tensor: no allocation per relay.
func TestStageRelayAllocs(t *testing.T) {
	w := &pipeWorker{node: &loopNode{id: 1}}
	act := tensor.New(8, 16, 4, 4)
	for i := range act.Data {
		act.Data[i] = float32(i)
	}
	relay := func() {
		if err := w.sendOne(2, act); err != nil {
			t.Fatal(err)
		}
		got, err := w.recvOne(2, &w.actIn)
		if err != nil {
			t.Fatal(err)
		}
		if got.Data[len(got.Data)-1] != act.Data[len(act.Data)-1] {
			t.Fatal("relay changed the tensor")
		}
	}
	relay() // the first micro-batch sizes the buffers
	if a := testing.AllocsPerRun(100, relay); a != 0 {
		t.Fatalf("a stage relay allocates %v times after the first micro-batch, want 0", a)
	}
}

// The TCP rung of the ring all-reduce: a LeNet-5 gradient among four
// nodes over loopback TCP, every member running b.N collectives.
func BenchmarkRingAllReduceTCP(b *testing.B) {
	members := []int{0, 1, 2, 3}
	mesh, err := transport.NewTCPMesh(len(members))
	if err != nil {
		b.Fatal(err)
	}
	defer mesh.Close()
	data := make([][]float32, len(members))
	for i := range data {
		data[i] = make([]float32, lenet5Params())
	}
	b.SetBytes(int64(4 * len(data[0])))
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, len(members))
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < b.N && errs[i] == nil; r++ {
				errs[i] = RingAllReduceAverage(mesh.Node(i), members, data[i])
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}
