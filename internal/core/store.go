package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// CheckpointStore persists checkpoints to a directory, one file per
// epoch, written atomically (temp file + rename) so a preemption
// mid-write never corrupts the latest good snapshot. This is the
// on-SoC persistence behind §3's preemption design.
type CheckpointStore struct {
	dir string
	// KeepLast, when positive, bounds the store: every Save prunes all
	// but the newest KeepLast checkpoints, so periodic auto-checkpointing
	// cannot fill the disk. Zero keeps everything.
	KeepLast int
}

// NewCheckpointStore creates (if needed) and opens a store directory.
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

func (s *CheckpointStore) path(epoch int) string {
	return filepath.Join(s.dir, fmt.Sprintf("epoch-%06d.ckpt", epoch))
}

// Save writes the checkpoint atomically and durably: the temp file is
// fsynced before the rename, and the directory is fsynced after it.
// Without the file sync, a power cut after rename can leave the final
// name pointing at unwritten pages (a zero-length or torn checkpoint —
// worse than no checkpoint, because it shadows the previous good
// epoch); without the directory sync, the rename itself may not
// survive the crash.
func (s *CheckpointStore) Save(cp *Checkpoint) error {
	tmp, err := os.CreateTemp(s.dir, "ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := cp.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(cp.Epoch)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if s.KeepLast > 0 {
		return s.Prune(s.KeepLast)
	}
	return nil
}

// CheckpointDue is the auto-checkpoint stride both tracks follow: the
// aggregated model is saved after every `every`-th epoch (<=1: every
// epoch) and always after the last of `epochs`. epoch is 0-based.
func CheckpointDue(every, epoch, epochs int) bool {
	return (epoch+1)%max(every, 1) == 0 || epoch == epochs-1
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Latest loads the newest *readable* checkpoint, or (nil, nil) when
// the store is empty. A corrupt newest file — e.g. a snapshot torn by
// a power cut on a filesystem without the rename guarantees Save
// assumes — is skipped in favour of the next older one; only when every
// checkpoint is unreadable does Latest report an error (the newest
// file's, as the most likely to matter).
func (s *CheckpointStore) Latest() (*Checkpoint, error) {
	names, err := s.list()
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	var firstErr error
	for i := len(names) - 1; i >= 0; i-- {
		cp, err := s.load(names[i])
		if err == nil {
			return cp, nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("core: checkpoint %s: %w", names[i], err)
		}
	}
	return nil, firstErr
}

func (s *CheckpointStore) load(name string) (*Checkpoint, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// Prune removes all but the newest keep checkpoints.
func (s *CheckpointStore) Prune(keep int) error {
	names, err := s.list()
	if err != nil {
		return err
	}
	if keep < 0 {
		keep = 0
	}
	for i := 0; i+keep < len(names); i++ {
		if err := os.Remove(filepath.Join(s.dir, names[i])); err != nil {
			return err
		}
	}
	return nil
}

func (s *CheckpointStore) list() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".ckpt" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
