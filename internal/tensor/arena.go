package tensor

import "sync"

// Arena is a goroutine-safe pool of scratch tensors keyed by element
// count. Training loops hand back every buffer they borrow, so after
// the first batch the pool serves all steady-state scratch demand
// without touching the allocator — the same per-batch working-set
// reuse MNN's static memory planner gives the paper's CPU backend.
//
// Ownership rules (see DESIGN.md §11):
//   - GetTensor transfers ownership to the caller. The buffer is
//     zeroed, exactly like a fresh tensor.New allocation, so pooled and
//     allocating paths stay bit-identical.
//   - ReleaseTensor transfers ownership back. The caller must
//     not retain any reference (slices of it included) afterwards.
//   - A buffer that escapes (is stored in a result) is simply never
//     released; the arena does not track outstanding buffers.
type Arena struct {
	mu      sync.Mutex
	tensors map[int][]*Tensor
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{tensors: make(map[int][]*Tensor)} }

// GetTensor borrows a zeroed tensor of the given shape. The tensor
// header and backing array come from the pool when an entry of the
// right element count is available.
func (a *Arena) GetTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	a.mu.Lock()
	l := a.tensors[n]
	var t *Tensor
	if len(l) > 0 {
		t = l[len(l)-1]
		a.tensors[n] = l[:len(l)-1]
	}
	a.mu.Unlock()
	if t == nil {
		return New(shape...)
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Zero()
	return t
}

// ReleaseTensor returns a tensor borrowed with GetTensor to the pool.
// Releasing nil is a no-op so error paths stay simple.
func (a *Arena) ReleaseTensor(t *Tensor) {
	if t == nil {
		return
	}
	n := len(t.Data)
	a.mu.Lock()
	a.tensors[n] = append(a.tensors[n], t)
	a.mu.Unlock()
}

// Scratch is the process-wide default arena: the aggregation
// accumulators of collective.AverageInPlace and WeightedAverageInPlace
// borrow from here instead of allocating.
var Scratch = NewArena()

// Ensure returns a tensor of the given shape backed by buf's storage
// when its capacity allows, allocating a fresh tensor only on growth
// (or when buf is nil). Contents are unspecified — callers fully
// overwrite. It is the building block for layer-owned persistent
// buffers: reuse is by capacity rather than exact shape, so alternating
// batch sizes (train mini-batch, α probe, evaluation) do not thrash.
func Ensure(buf *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if buf != nil && cap(buf.Data) >= n {
		buf.Data = buf.Data[:n]
		buf.Shape = append(buf.Shape[:0], shape...)
		return buf
	}
	return New(shape...)
}
