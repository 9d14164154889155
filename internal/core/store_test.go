package core

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointStoreSaveLatestPrune(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(filepath.Join(dir, "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := store.Latest(); err != nil || cp != nil {
		t.Fatalf("empty store Latest = %v, %v", cp, err)
	}
	r := tensorRNG(5)
	model := testJob(t, 60, 1).BuildModel(r)
	for e := 1; e <= 3; e++ {
		model.Weights()[0].Fill(float32(e))
		if err := store.Save(TakeCheckpoint(e, model.Weights(), model.StateTensors())); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch != 3 || cp.Weights[0].Data[0] != 3 {
		t.Fatalf("Latest = epoch %d value %v", cp.Epoch, cp.Weights[0].Data[0])
	}
	if err := store.Prune(1); err != nil {
		t.Fatal(err)
	}
	names, err := store.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("after prune: %v", names)
	}
}

// KeepLast turns every Save into a retention pass: the store never
// holds more than the newest K checkpoints.
func TestCheckpointStoreKeepLastRetention(t *testing.T) {
	store, err := NewCheckpointStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	store.KeepLast = 2
	model := testJob(t, 60, 1).BuildModel(tensorRNG(5))
	for e := 1; e <= 5; e++ {
		if err := store.Save(TakeCheckpoint(e, model.Weights(), model.StateTensors())); err != nil {
			t.Fatal(err)
		}
		names, err := store.list()
		if err != nil {
			t.Fatal(err)
		}
		want := e
		if want > 2 {
			want = 2
		}
		if len(names) != want {
			t.Fatalf("after saving epoch %d: %d files %v, want %d", e, len(names), names, want)
		}
	}
	cp, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch != 5 {
		t.Fatalf("retention must keep the newest: Latest epoch = %d", cp.Epoch)
	}
}

// A torn or corrupt newest file — the exact artifact of dying
// mid-write — must not brick resume: Latest falls back to the newest
// readable checkpoint, and only errors when nothing is readable.
func TestCheckpointStoreLatestSkipsCorrupt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	model := testJob(t, 60, 1).BuildModel(tensorRNG(5))
	for e := 1; e <= 2; e++ {
		model.Weights()[0].Fill(float32(e))
		if err := store.Save(TakeCheckpoint(e, model.Weights(), model.StateTensors())); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(store.path(2), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := store.Latest()
	if err != nil {
		t.Fatalf("corrupt newest must fall back, got error: %v", err)
	}
	if cp.Epoch != 1 || cp.Weights[0].Data[0] != 1 {
		t.Fatalf("fallback loaded epoch %d value %v, want the older good checkpoint", cp.Epoch, cp.Weights[0].Data[0])
	}
	if err := os.Truncate(store.path(1), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Latest(); err == nil {
		t.Fatal("all checkpoints corrupt: Latest must error, not return nil")
	}
}
