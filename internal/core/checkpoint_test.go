package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"socflow/internal/nn"
)

// testCheckpoint builds a small real checkpoint for corruption tests.
func testCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	model := nn.MustSpec("lenet5").BuildMicro(tensorRNG(3), 1, 16, 4)
	return TakeCheckpoint(2, model.Weights(), model.StateTensors())
}

// TestCheckpointTruncationNeverPanics feeds ReadCheckpoint every proper
// prefix of a valid checkpoint — a crash can truncate a file at any
// byte. Each prefix must produce an error, never a panic and never a
// silently partial model.
func TestCheckpointTruncationNeverPanics(t *testing.T) {
	data := testCheckpoint(t).Bytes()
	if len(data) == 0 {
		t.Fatal("empty serialization")
	}
	for cut := 0; cut < len(data); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadCheckpoint panicked at truncation %d/%d: %v", cut, len(data), r)
				}
			}()
			cp, err := ReadCheckpoint(bytes.NewReader(data[:cut]))
			if err == nil {
				t.Fatalf("truncation at %d/%d accepted: %+v", cut, len(data), cp)
			}
		}()
	}
	// The full stream still parses.
	if _, err := ReadCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("full checkpoint failed to parse: %v", err)
	}
}

// overflowingCheckpoint is a checkpoint header whose one weight tensor
// has dims 0xFFFFFFFF × 0xFFFFFFFF: their product used to wrap negative,
// pass the size cap and panic in makeslice. Rejoin state transfer hands
// ReadCheckpoint a peer's bytes, so this must be an error.
var overflowingCheckpoint = []byte{
	0x57, 0x4c, 0x46, 0x53, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // magic, version, epoch
	1, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // count, rank, dims
}

func TestReadCheckpointRejectsOverflowingShape(t *testing.T) {
	if cp, err := ReadCheckpoint(bytes.NewReader(overflowingCheckpoint)); err == nil {
		t.Fatalf("accepted %+v", cp)
	}
}

// FuzzReadCheckpoint: any bytes either fail to parse or the checkpoint
// re-serializes to the bytes the reader consumed; no input panics.
func FuzzReadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, cp.Bytes()) {
			t.Fatalf("%x parsed to a checkpoint that re-serializes differently", data)
		}
	})
}

// failAfterWriter errors once limit bytes have been accepted — a
// stand-in for a disk filling up mid-checkpoint.
type failAfterWriter struct {
	limit int
	n     int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		take := w.limit - w.n
		if take < 0 {
			take = 0
		}
		w.n += take
		return take, fmt.Errorf("disk full after %d bytes", w.limit)
	}
	w.n += len(p)
	return len(p), nil
}

// TestCheckpointWriteToPropagatesErrors drives WriteTo into writers
// that fail at various offsets: the error must surface (not be
// swallowed mid-stream) and the returned count must equal what the
// writer actually accepted. On success the count must equal the full
// serialized length.
func TestCheckpointWriteToPropagatesErrors(t *testing.T) {
	cp := testCheckpoint(t)
	full := cp.Bytes()

	n, err := cp.WriteTo(&bytes.Buffer{})
	if err != nil {
		t.Fatalf("WriteTo to buffer failed: %v", err)
	}
	if n != int64(len(full)) {
		t.Fatalf("WriteTo count = %d, want full length %d", n, len(full))
	}

	for _, limit := range []int{0, 1, 3, 4, 8, 16, 17, len(full) / 2, len(full) - 1} {
		w := &failAfterWriter{limit: limit}
		n, err := cp.WriteTo(w)
		if err == nil {
			t.Fatalf("limit %d: error swallowed", limit)
		}
		if n != int64(w.n) {
			t.Fatalf("limit %d: reported %d bytes, writer accepted %d", limit, n, w.n)
		}
	}
}

// TestCheckpointStoreCrashKeepsPreviousGood simulates a preemption
// mid-save: whatever partial state a crashed writer leaves behind (an
// orphan temp file, even one full of garbage), Latest must keep
// returning the previous good epoch.
func TestCheckpointStoreCrashKeepsPreviousGood(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testCheckpoint(t)
	if err := store.Save(good); err != nil {
		t.Fatal(err)
	}

	// Crash before rename: the next epoch's write dies partway, leaving
	// a temp file with a truncated payload.
	next := testCheckpoint(t)
	next.Epoch = good.Epoch + 1
	partial := next.Bytes()[:37]
	if err := os.WriteFile(filepath.Join(dir, "ckpt-crashed123"), partial, 0o644); err != nil {
		t.Fatal(err)
	}
	// And a second crashed attempt that wrote pure garbage.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-crashed456"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	cp, err := store.Latest()
	if err != nil {
		t.Fatalf("Latest after simulated crash: %v", err)
	}
	if cp == nil || cp.Epoch != good.Epoch {
		t.Fatalf("Latest = %+v, want previous good epoch %d", cp, good.Epoch)
	}

	// A later successful save supersedes the good epoch as usual.
	if err := store.Save(next); err != nil {
		t.Fatal(err)
	}
	cp, err = store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch != next.Epoch {
		t.Fatalf("Latest after recovery save = %d, want %d", cp.Epoch, next.Epoch)
	}
}
