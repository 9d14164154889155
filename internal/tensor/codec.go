package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// WriteSet writes ts in the little-endian framing the mesh's tensor
// messages and checkpoints share:
//
//	count u32 | per tensor: rank u32 | dims u32... | data f32...
func WriteSet(w io.Writer, ts []*Tensor) error {
	_, err := w.Write(AppendSet(nil, ts))
	return err
}

// AppendSet appends ts to dst in WriteSet's framing and returns the
// extended slice. A dst with room for the set is written in place.
func AppendSet(dst []byte, ts []*Tensor) []byte {
	size := 4
	for _, t := range ts {
		size += 4 + 4*len(t.Shape) + 4*len(t.Data)
	}
	off := len(dst)
	dst = slices.Grow(dst, size)[:off+size]
	b := dst[off:]
	le := binary.LittleEndian
	le.PutUint32(b, uint32(len(ts)))
	b = b[4:]
	for _, t := range ts {
		le.PutUint32(b, uint32(len(t.Shape)))
		b = b[4:]
		for _, d := range t.Shape {
			le.PutUint32(b, uint32(d))
			b = b[4:]
		}
		data := b[:4*len(t.Data)]
		for i, x := range t.Data {
			le.PutUint32(data[4*i:], math.Float32bits(x))
		}
		b = b[len(data):]
	}
	return dst
}

// The bounds a set's header must satisfy before it sizes anything. The
// bytes may come from a peer or a damaged file; ReadSet and DecodeSet
// both apply them, through these helpers. remaining is how many bytes
// follow the field just read, or -1 when the source cannot tell.

// checkCount bounds a set's tensor count: each tensor takes at least
// its 4-byte rank.
func checkCount(n uint32, remaining int) error {
	if n > 1<<20 || remaining >= 0 && uint64(n) > uint64(remaining/4) {
		return fmt.Errorf("tensor: implausible tensor count %d", n)
	}
	return nil
}

// checkRank bounds a tensor's dimension count.
func checkRank(rank uint32) error {
	if rank > 8 {
		return fmt.Errorf("tensor: implausible rank %d", rank)
	}
	return nil
}

// checkDim folds one dimension into the running element count: each
// dimension and every running product are at most maxSize.
func checkDim(size uint64, dim uint32, maxSize int) (uint64, error) {
	if uint64(dim) > uint64(maxSize) {
		return 0, fmt.Errorf("tensor: implausible dimension %d", dim)
	}
	if size *= uint64(dim); size > uint64(maxSize) { // both factors ≤ maxSize: no wrap
		return 0, fmt.Errorf("tensor: implausible tensor size %d", size)
	}
	return size, nil
}

// checkData bounds a tensor's data by the bytes that remain.
func checkData(size uint64, remaining int) error {
	if remaining >= 0 && 4*size > uint64(remaining) {
		return fmt.Errorf("tensor: %d elements in a %d-byte remainder: %w", size, remaining, io.ErrUnexpectedEOF)
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
	remaining := func() int {
		if sized == nil {
			return -1
		}
		return sized.Len()
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := checkCount(n, remaining()); err != nil {
		return nil, err
	}
	set := make([]*Tensor, n)
	for i := range set {
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return nil, err
		}
		if err := checkRank(rank); err != nil {
			return nil, err
		}
		dims := make([]uint32, rank)
		if err := binary.Read(r, binary.LittleEndian, dims); err != nil {
			return nil, err
		}
		shape := make([]int, rank)
		size := uint64(1)
		for d, dim := range dims {
			var err error
			if size, err = checkDim(size, dim, maxSize); err != nil {
				return nil, err
			}
			shape[d] = int(dim)
		}
		if err := checkData(size, remaining()); err != nil {
			return nil, err
		}
		t := New(shape...)
		if err := binary.Read(r, binary.LittleEndian, t.Data); err != nil {
			return nil, err
		}
		set[i] = t
	}
	return set, nil
}

// DecodeSet decodes the set at the front of b, as ReadSet would read it
// from bytes.NewReader(b), under the same bounds. It decodes into dst's
// tensors where it can: dst[i] takes the i-th tensor's shape and, when
// its capacity suffices, its data in place, so a caller that passes back
// what the last call returned decodes same-shaped sets without
// allocating. The tensors in dst must be the caller's own: their Shape
// and Data are overwritten, and left partly written on an error.
func DecodeSet(dst []*Tensor, b []byte, maxSize int) ([]*Tensor, error) {
	le := binary.LittleEndian
	if len(b) < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	n := le.Uint32(b)
	b = b[4:]
	if err := checkCount(n, len(b)); err != nil {
		return nil, err
	}
	if len(dst) < int(n) {
		dst = append(dst, make([]*Tensor, int(n)-len(dst))...)
	}
	set := dst[:n]
	for i := range set {
		if len(b) < 4 {
			return nil, io.ErrUnexpectedEOF
		}
		rank := le.Uint32(b)
		b = b[4:]
		if err := checkRank(rank); err != nil {
			return nil, err
		}
		if len(b) < 4*int(rank) {
			return nil, io.ErrUnexpectedEOF
		}
		t := set[i]
		if t == nil {
			t = &Tensor{}
			set[i] = t
		}
		t.Shape = t.Shape[:0]
		size := uint64(1)
		for d := 0; d < int(rank); d++ {
			dim := le.Uint32(b[4*d:])
			var err error
			if size, err = checkDim(size, dim, maxSize); err != nil {
				return nil, err
			}
			t.Shape = append(t.Shape, int(dim))
		}
		b = b[4*rank:]
		if err := checkData(size, len(b)); err != nil {
			return nil, err
		}
		if cap(t.Data) < int(size) {
			t.Data = make([]float32, size)
		}
		t.Data = t.Data[:size]
		data := b[:4*size]
		for e := range t.Data {
			t.Data[e] = math.Float32frombits(le.Uint32(data[4*e:]))
		}
		b = b[len(data):]
	}
	return set, nil
}
