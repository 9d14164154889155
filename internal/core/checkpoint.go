package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"socflow/internal/tensor"
)

// The paper's co-location design requires checkpoints that survive a
// preempted SoC ("SoCFlow includes checkpoints on Mobile SoCs to ensure
// that a new user-related workload request can preempt training
// tasks"). This file provides the wire format: a small binary framing
// over the checkpoint's tensors, written with encoding/binary so a
// checkpoint taken on one SoC restores bit-identically on another.

// checkpointMagic identifies the format; bump the version on layout
// changes.
const (
	checkpointMagic   = 0x53464C57 // "SFLW"
	checkpointVersion = 1
)

// WriteTo serializes the checkpoint. The format is:
//
//	magic u32 | version u32 | epoch i64 | weights | state
//
// where weights and state are each a tensor set in tensor.WriteSet's
// framing: count u32, then per tensor rank u32 | dims u32... | data f32...
//
// It implements io.WriterTo: the returned count is the total number of
// bytes written (across however many Write calls the destination took),
// and every encoding or write error is propagated — a short write to a
// full disk must surface here, not as a truncated file that only fails
// at restore time.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	write := func(v any) error {
		return binary.Write(cw, binary.LittleEndian, v)
	}
	if err := write(uint32(checkpointMagic)); err != nil {
		return cw.n, err
	}
	if err := write(uint32(checkpointVersion)); err != nil {
		return cw.n, err
	}
	if err := write(int64(cp.Epoch)); err != nil {
		return cw.n, err
	}
	if err := tensor.WriteSet(cw, cp.Weights); err != nil {
		return cw.n, err
	}
	if err := tensor.WriteSet(cw, cp.State); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// countWriter tracks the total bytes written through it, so WriteTo can
// report a true count even when the payload goes out in many small
// binary.Write calls.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

// ReadCheckpoint deserializes a checkpoint written by WriteTo.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var magic, version uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("core: not a SoCFlow checkpoint (magic %#x)", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", version)
	}
	var epoch int64
	if err := binary.Read(r, binary.LittleEndian, &epoch); err != nil {
		return nil, err
	}
	cp := &Checkpoint{Epoch: int(epoch)}
	var err error
	if cp.Weights, err = tensor.ReadSet(r, 1<<28); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint weights: %w", err)
	}
	if cp.State, err = tensor.ReadSet(r, 1<<28); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint state: %w", err)
	}
	return cp, nil
}

// Bytes is a convenience that serializes to a fresh buffer.
func (cp *Checkpoint) Bytes() []byte {
	var buf bytes.Buffer
	cp.WriteTo(&buf) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}
