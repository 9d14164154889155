package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"socflow/internal/tensor"
)

// A vector frame is its element count, u32, then the elements as
// little-endian float32 bits.

// EncodeVector serializes a float32 vector for the wire.
func EncodeVector(v []float32) []byte {
	return AppendVector(make([]byte, 0, 4+4*len(v)), v)
}

// AppendVector appends v's frame to dst and returns the extended slice;
// a dst with room for the frame is written in place, so a sender that
// reuses one buffer encodes without allocating.
func AppendVector(dst []byte, v []float32) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 4+4*len(v))[:off+4+4*len(v)]
	b := dst[off:]
	binary.LittleEndian.PutUint32(b, uint32(len(v)))
	elems := b[4:]
	for i, x := range v {
		binary.LittleEndian.PutUint32(elems[4*i:], math.Float32bits(x))
	}
	return dst
}

// vectorElems checks that b is one whole vector frame and returns its
// element bytes.
func vectorElems(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("transport: vector frame too short")
	}
	n := binary.LittleEndian.Uint32(b)
	if int64(len(b)-4) != 4*int64(n) { // in 64 bits: 4*n must not wrap
		return nil, fmt.Errorf("transport: vector frame length %d for %d elements", len(b), n)
	}
	return b[4:], nil
}

// vectorElemsFor is vectorElems for a frame that must carry exactly
// len(dst) elements.
func vectorElemsFor(dst []float32, b []byte) ([]byte, error) {
	elems, err := vectorElems(b)
	if err != nil {
		return nil, err
	}
	if len(elems) != 4*len(dst) {
		return nil, fmt.Errorf("transport: vector frame of %d elements, want %d", len(elems)/4, len(dst))
	}
	return elems, nil
}

// DecodeVector reverses EncodeVector.
func DecodeVector(b []byte) ([]float32, error) {
	elems, err := vectorElems(b)
	if err != nil {
		return nil, err
	}
	v := make([]float32, len(elems)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(elems[4*i:]))
	}
	return v, nil
}

// DecodeVectorInto decodes frame b into dst, which must be exactly as
// long as the frame's vector.
func DecodeVectorInto(dst []float32, b []byte) error {
	elems, err := vectorElemsFor(dst, b)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(elems[4*i:]))
	}
	return nil
}

// AddVector adds frame b's vector onto dst element by element
// (dst[i] += v[i]); dst must be exactly as long as the vector.
func AddVector(dst []float32, b []byte) error {
	elems, err := vectorElemsFor(dst, b)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(elems[4*i:]))
	}
	return nil
}

// maxTensorSize bounds one decoded tensor's element count (1<<27).
const maxTensorSize = 1 << 27

// EncodeTensors serializes a tensor set (shapes + data) for model and
// gradient exchange, in tensor.WriteSet's framing.
func EncodeTensors(ts []*tensor.Tensor) []byte {
	return tensor.AppendSet(nil, ts)
}

// DecodeTensors reverses EncodeTensors. A tensor may hold at most 1<<27
// elements.
func DecodeTensors(b []byte) ([]*tensor.Tensor, error) {
	return DecodeTensorsInto(nil, b)
}

// DecodeTensorsInto is DecodeTensors reusing dst's tensors, as
// tensor.DecodeSet does: passing back what the last call returned
// decodes a same-shaped set without allocating.
func DecodeTensorsInto(dst []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error) {
	ts, err := tensor.DecodeSet(dst, b, maxTensorSize)
	if err != nil {
		return nil, fmt.Errorf("transport: decoding tensors: %w", err)
	}
	return ts, nil
}
