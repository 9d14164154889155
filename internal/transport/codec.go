package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"socflow/internal/tensor"
)

// EncodeVector serializes a float32 vector for the wire.
func EncodeVector(v []float32) []byte {
	buf := make([]byte, 4+4*len(v))
	binary.LittleEndian.PutUint32(buf, uint32(len(v)))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4+4*i:], math.Float32bits(x))
	}
	return buf
}

// DecodeVector reverses EncodeVector.
func DecodeVector(b []byte) ([]float32, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("transport: vector frame too short")
	}
	n := binary.LittleEndian.Uint32(b)
	if int64(len(b)-4) != 4*int64(n) { // in 64 bits: 4*n must not wrap
		return nil, fmt.Errorf("transport: vector frame length %d for %d elements", len(b), n)
	}
	v := make([]float32, n)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4+4*i:]))
	}
	return v, nil
}

// EncodeTensors serializes a tensor set (shapes + data) for model and
// gradient exchange, in tensor.WriteSet's framing.
func EncodeTensors(ts []*tensor.Tensor) []byte {
	var buf bytes.Buffer
	tensor.WriteSet(&buf, ts) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// DecodeTensors reverses EncodeTensors. A tensor may hold at most 1<<27
// elements.
func DecodeTensors(b []byte) ([]*tensor.Tensor, error) {
	ts, err := tensor.ReadSet(bytes.NewReader(b), 1<<27)
	if err != nil {
		return nil, fmt.Errorf("transport: decoding tensors: %w", err)
	}
	return ts, nil
}
