package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
)

// WriteSet writes ts in the little-endian framing the mesh's tensor
// messages and checkpoints share:
//
//	count u32 | per tensor: rank u32 | dims u32... | data f32...
func WriteSet(w io.Writer, ts []*Tensor) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ts))); err != nil {
		return err
	}
	for _, t := range ts {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(t.Shape))); err != nil {
			return err
		}
		for _, d := range t.Shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		if err := binary.Write(w, binary.LittleEndian, t.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadSet reads one set written by WriteSet. The bytes may come from a
// peer, so every header field is bounded before it sizes an allocation:
// at most 8 dimensions, each dimension and every running product of
// them at most maxSize elements, and, when r reports how many bytes it
// still holds (bytes.Reader, bytes.Buffer), no count or tensor larger
// than those bytes could carry.
func ReadSet(r io.Reader, maxSize int) ([]*Tensor, error) {
	sized, _ := r.(interface{ Len() int })
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<20 || sized != nil && uint64(n) > uint64(sized.Len()/4) {
		return nil, fmt.Errorf("tensor: implausible tensor count %d", n)
	}
	set := make([]*Tensor, n)
	for i := range set {
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return nil, err
		}
		if rank > 8 {
			return nil, fmt.Errorf("tensor: implausible rank %d", rank)
		}
		dims := make([]uint32, rank)
		if err := binary.Read(r, binary.LittleEndian, dims); err != nil {
			return nil, err
		}
		shape := make([]int, rank)
		size := uint64(1)
		for d, dim := range dims {
			if uint64(dim) > uint64(maxSize) {
				return nil, fmt.Errorf("tensor: implausible dimension %d", dim)
			}
			if size *= uint64(dim); size > uint64(maxSize) { // both factors ≤ maxSize: no wrap
				return nil, fmt.Errorf("tensor: implausible tensor size %d", size)
			}
			shape[d] = int(dim)
		}
		if sized != nil && 4*size > uint64(sized.Len()) {
			return nil, fmt.Errorf("tensor: %d elements in a %d-byte remainder: %w", size, sized.Len(), io.ErrUnexpectedEOF)
		}
		t := New(shape...)
		if err := binary.Read(r, binary.LittleEndian, t.Data); err != nil {
			return nil, err
		}
		set[i] = t
	}
	return set, nil
}
