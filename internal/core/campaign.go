package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"socflow/internal/cluster"
	"socflow/internal/tensor"
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

// Campaign trains a job across multiple nightly idle windows — the
// software-design problem §2.3 raises ("the extended training process
// may occupy multiple idle time windows"). Each night the campaign
// resumes from the latest checkpoint, trains epochs until the window's
// simulated-time budget is spent, and checkpoints before handing the
// SoCs back to user workloads. Optimizer momentum restarts each night,
// as it would on a real resume.
type Campaign struct {
	// Strategy trains each night (its WarmStart field is managed by
	// the campaign).
	Strategy *SoCFlow
	// Store persists progress between nights; nil keeps progress
	// in-memory only (single-process campaigns).
	Store *CheckpointStore
	// WindowHours is the nightly idle budget in simulated hours
	// (the paper's "typical idle time frame of a day (~4hrs)").
	WindowHours float64
	// MaxNights bounds the campaign (default 14).
	MaxNights int
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	// Nights actually used.
	Nights int
	// EpochsPerNight records how many functional epochs fit each night.
	EpochsPerNight []int
	// BestAccuracy over the whole campaign.
	BestAccuracy float64
	// TotalSimHours is the simulated training time consumed.
	TotalSimHours float64
	// Converged reports whether the job's TargetAccuracy was reached.
	Converged bool
}

// Run executes the campaign. The job's Epochs field is the total
// functional-epoch budget; TargetAccuracy (if set) ends the campaign
// early.
func (c *Campaign) Run(ctx context.Context, job *Job, clu *cluster.Cluster) (*CampaignResult, error) {
	if c.Strategy == nil {
		return nil, fmt.Errorf("core: campaign needs a strategy")
	}
	if c.WindowHours <= 0 {
		return nil, fmt.Errorf("core: campaign window %v h", c.WindowHours)
	}
	maxNights := c.MaxNights
	if maxNights == 0 {
		maxNights = 14
	}

	res := &CampaignResult{}
	remaining := job.Epochs

	var warm *Checkpoint
	if c.Store != nil {
		cp, err := c.Store.Latest()
		if err != nil {
			return nil, err
		}
		warm = cp
	}
	epochsDone := 0
	if warm != nil {
		epochsDone = warm.Epoch
		remaining -= warm.Epoch
	}

	restore := func(night int) (*SoCFlow, error) {
		strat := *c.Strategy
		if warm != nil {
			shell := job.BuildModel(tensor.NewRNG(job.Seed + uint64(night)*977))
			warm.Restore(shell.Weights(), shell.StateTensors())
			strat.WarmStart = shell
		}
		return &strat, nil
	}

	for night := 0; night < maxNights && remaining > 0 && !res.Converged; night++ {
		budget := c.WindowHours * 3600
		var used float64
		fit := 0
		for remaining > 0 && !res.Converged {
			strat, err := restore(night)
			if err != nil {
				return nil, err
			}
			epochJob := *job
			epochJob.Epochs = 1
			// Vary the data order per global epoch; a fixed seed would
			// replay the same shard split and batch order every night.
			epochJob.Seed = job.Seed + uint64(epochsDone)*131
			r, err := strat.Run(ctx, &epochJob, clu)
			if err != nil {
				return nil, err
			}
			et := r.SimSeconds
			if fit > 0 && used+et > budget {
				break // the next epoch does not fit tonight
			}
			used += et
			fit++
			remaining--
			epochsDone++
			if r.BestAccuracy > res.BestAccuracy {
				res.BestAccuracy = r.BestAccuracy
			}
			warm = &Checkpoint{Epoch: epochsDone, Weights: r.FinalWeights, State: r.FinalState}
			if job.TargetAccuracy > 0 && r.BestAccuracy >= job.TargetAccuracy {
				res.Converged = true
			}
			if used >= budget {
				break
			}
		}
		res.Nights++
		res.EpochsPerNight = append(res.EpochsPerNight, fit)
		res.TotalSimHours += used / 3600
		if c.Store != nil && warm != nil {
			if err := c.Store.Save(warm); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
