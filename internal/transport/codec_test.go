package transport

import (
	"bytes"
	"testing"
)

// An 8-byte frame claiming 0x40000001 elements: 4·n wraps to 4 in 32
// bits, which used to pass the length check and reach a 4 GiB make.
func TestDecodeVectorRejectsWrappedLength(t *testing.T) {
	if v, err := DecodeVector([]byte{0x01, 0x00, 0x00, 0x40, 0, 0, 0, 0}); err == nil {
		t.Fatalf("accepted a frame for 0x40000001 elements: %d decoded", len(v))
	}
}

// Shapes whose element count wraps, or exceeds what the frame carries,
// must be rejected before anything is allocated for them.
func TestDecodeTensorsRejectsOverflowingShape(t *testing.T) {
	for name, frame := range map[string][]byte{
		// count 1, rank 2, dims 0xFFFFFFFF × 0xFFFFFFFF: the product used
		// to wrap negative, pass the size cap and panic in makeslice.
		"wrapping product": {1, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		// count 1, rank 2, dims 0x10000 × 0x10000: 2^32 elements.
		"product past the cap": {1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0},
		// count 1, rank 1, dim 0x100000: legal size, 4 MiB the frame lacks.
		"data past the frame": {1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x10, 0},
		// count 0x100000 tensors in a 4-byte frame.
		"count past the frame": {0, 0, 0x10, 0},
	} {
		if ts, err := DecodeTensors(frame); err == nil {
			t.Errorf("%s: accepted %d tensors", name, len(ts))
		}
	}
}

// FuzzDecodeVector: a peer's bytes either fail to decode or re-encode
// to exactly themselves; no input panics.
func FuzzDecodeVector(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeVector(b)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeVector(v), b) {
			t.Fatalf("%x decoded to %d elements that re-encode differently", b, len(v))
		}
	})
}

// FuzzDecodeTensors: a peer's bytes either fail to decode or the tensors
// re-encode to the bytes the decoder consumed; no input panics.
func FuzzDecodeTensors(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		ts, err := DecodeTensors(b)
		if err != nil {
			return
		}
		if !bytes.HasPrefix(b, EncodeTensors(ts)) {
			t.Fatalf("%x decoded to %d tensors that re-encode differently", b, len(ts))
		}
	})
}
