// Package runtime is the concurrent distributed engine: one goroutine
// per SoC, exchanging tensors over a transport.Mesh (in-process
// channels or real loopback TCP). Where internal/core trains each
// logical group as a mathematically equivalent single model (the
// "lift"), this package executes the actual distributed protocol —
// chunked Ring-AllReduce inside groups, a leader ring across groups,
// activation relays between pipeline stages — and is used to validate
// the lift and to demonstrate the system end to end.
package runtime

import (
	"fmt"

	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// rankOf returns the index of id within members, or -1.
func rankOf(id int, members []int) int {
	for i, m := range members {
		if m == id {
			return i
		}
	}
	return -1
}

// positionIn locates id among groups: its group and its rank there.
func positionIn(groups [][]int, id int) (g, i int, ok bool) {
	for g, members := range groups {
		if i := rankOf(id, members); i >= 0 {
			return g, i, true
		}
	}
	return 0, 0, false
}

// chunkBounds splits length n into count contiguous chunks and returns
// chunk c's [lo, hi) bounds.
func chunkBounds(n, count, c int) (lo, hi int) {
	lo = c * n / count
	hi = (c + 1) * n / count
	return lo, hi
}

// RingAllReduceAverage runs the standard two-phase chunked ring
// all-reduce (reduce-scatter then all-gather) over members, averaging
// `data` in place. Every member must call it with the same member list
// and an equal-length vector. A single member is a no-op.
//
// Every step encodes its chunk into one frame buffer the call owns,
// sized for the largest chunk; received chunks are added (reduce-
// scatter) or decoded (all-gather) straight from the frame into data.
func RingAllReduceAverage(node transport.Node, members []int, data []float32) error {
	n := len(members)
	if n <= 1 {
		return nil
	}
	rank := rankOf(node.ID(), members)
	if rank < 0 {
		return fmt.Errorf("runtime: node %d is not in members %v", node.ID(), members)
	}
	right := members[(rank+1)%n]
	left := members[(rank-1+n)%n]
	frame := make([]byte, 0, 4+4*((len(data)+n-1)/n))

	// Phase 1: reduce-scatter. After step s each rank has accumulated
	// one more peer's contribution to a rotating chunk; after n-1 steps
	// rank r holds the fully reduced chunk (r+1) mod n.
	for s := 0; s < n-1; s++ {
		sendIdx := (rank - s + n) % n
		recvIdx := (rank - s - 1 + n) % n
		lo, hi := chunkBounds(len(data), n, sendIdx)
		frame = transport.AppendVector(frame[:0], data[lo:hi])
		if err := node.Send(right, frame); err != nil {
			return err
		}
		msg, err := node.Recv(left)
		if err != nil {
			return err
		}
		rlo, rhi := chunkBounds(len(data), n, recvIdx)
		if err := transport.AddVector(data[rlo:rhi], msg); err != nil {
			return fmt.Errorf("runtime: reduce-scatter: %w", err)
		}
	}

	// Phase 2: all-gather the reduced chunks around the ring.
	for s := 0; s < n-1; s++ {
		sendIdx := (rank + 1 - s + n) % n
		recvIdx := (rank - s + n) % n
		lo, hi := chunkBounds(len(data), n, sendIdx)
		frame = transport.AppendVector(frame[:0], data[lo:hi])
		if err := node.Send(right, frame); err != nil {
			return err
		}
		msg, err := node.Recv(left)
		if err != nil {
			return err
		}
		rlo, rhi := chunkBounds(len(data), n, recvIdx)
		if err := transport.DecodeVectorInto(data[rlo:rhi], msg); err != nil {
			return fmt.Errorf("runtime: all-gather: %w", err)
		}
	}

	inv := 1 / float32(n)
	for i := range data {
		data[i] *= inv
	}
	return nil
}

// Broadcast sends root's vector to every other member; non-roots
// overwrite their vector with the received one.
func Broadcast(node transport.Node, members []int, root int, data []float32) error {
	if node.ID() == root {
		out := transport.EncodeVector(data)
		for _, m := range members {
			if m == root {
				continue
			}
			if err := node.Send(m, out); err != nil {
				return err
			}
		}
		return nil
	}
	msg, err := node.Recv(root)
	if err != nil {
		return err
	}
	if err := transport.DecodeVectorInto(data, msg); err != nil {
		return fmt.Errorf("runtime: broadcast: %w", err)
	}
	return nil
}

// flattenInto copies a tensor set into dst, reusing dst's storage when
// its capacity suffices. Workers keep one flat buffer per exchange kind
// and re-flatten into it every iteration, so the gradient-sync hot path
// stops allocating after the first batch.
func flattenInto(dst []float32, ts []*tensor.Tensor) []float32 {
	total := 0
	for _, t := range ts {
		total += t.Size()
	}
	if cap(dst) < total {
		dst = make([]float32, 0, total)
	}
	dst = dst[:0]
	for _, t := range ts {
		dst = append(dst, t.Data...)
	}
	return dst
}

// unflatten copies a vector back into a tensor set.
func unflatten(v []float32, ts []*tensor.Tensor) {
	off := 0
	for _, t := range ts {
		copy(t.Data, v[off:off+t.Size()])
		off += t.Size()
	}
}
