// Colocation: the scenario motivating the whole paper (Fig. 1) — the
// SoC-Cluster's day job is serving user requests, and training harvests
// whatever the request tide leaves idle. Both workloads run on ONE
// control plane: an SLO-batched serving job resizes with the diurnal
// tide, and the scheduler parks the preemptible training job whenever
// serving's footprint leaves too few SoCs, resuming it from its park
// checkpoint as the tide ebbs.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"socflow"
)

const (
	totalSoCs = 12
	trainSoCs = 10
)

type summary struct {
	Parks, Resumes int
	TrainAccuracy  float64
	Attainment     float64
	Requests       int
}

func main() {
	if _, err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) (summary, error) {
	ctx := context.Background()
	srv := socflow.NewServer(socflow.ServerConfig{TotalSoCs: totalSoCs})
	defer srv.Close()
	cl := srv.Client()

	// The training tenant claims most of the cluster. Training jobs are
	// preemptible: the scheduler may park them at an epoch
	// boundary (checkpointing weights and BN state) and resume later.
	th, err := cl.Submit(ctx, socflow.Config{
		JobSpec: socflow.JobSpec{
			Model: "lenet5", Dataset: "fmnist",
			Epochs: 12, TrainSamples: 960, ValSamples: 128, Seed: 3,
		},
		NumSoCs: trainSoCs,
		Groups:  5,
	}, socflow.WithTenant("lab"))
	if err != nil {
		return summary{}, err
	}
	if err := waitState(ctx, th, socflow.JobRunning); err != nil {
		return summary{}, err
	}
	fmt.Fprintf(w, "training started on %d of %d SoCs — now the evening request tide arrives\n\n", trainSoCs, totalSoCs)

	// The serving tenant opens its window at 21:00, when the tide is
	// still high: its footprint does not fit beside training, so the
	// scheduler parks training to admit the higher-priority tenant.
	// Each simulated hour the HourEnd hook waits for the scheduler to
	// settle training into the state the new footprint implies, then
	// logs the row — serving resizing down the night, training resumed
	// underneath it.
	cfg := socflow.ServeConfig{
		Model: "lenet5", Dataset: "fmnist",
		Stages: 2, MaxBatch: 8, MaxQueueDelay: 0.02,
		SLO: 0.5, PeakRPS: 2,
		StartHour: 21, Hours: 12,
		NumSoCs: totalSoCs, Samples: 96, Seed: 3,
	}
	cfg.HourEnd = func(s socflow.ServeHourStat) {
		st := settle(ctx, th, s.SoCs+trainSoCs > totalSoCs)
		fmt.Fprintf(w, "  %02.0f:00  busy %3.0f%%  serving %2d SoCs  req %4d  slo %5.1f%%  training %s (%d/12 epochs)\n",
			s.Hour, 100*s.Busy, s.SoCs, s.Requests, 100*s.Attainment, st.State, st.EpochsDone)
	}
	sh, err := cl.Serve(ctx, cfg, socflow.WithTenant("web"), socflow.WithPriority(9))
	if err != nil {
		return summary{}, err
	}
	srep, err := sh.Wait(ctx)
	if err != nil {
		return summary{}, err
	}
	trep, err := th.Wait(ctx)
	if err != nil {
		return summary{}, err
	}
	st, err := th.Status(ctx)
	if err != nil {
		return summary{}, err
	}

	fmt.Fprintf(w, "\nserving: %d requests, %.2f%% SLO attainment, p99 %.4fs\n",
		srep.Requests, 100*srep.Attainment, srep.P99Seconds)
	fmt.Fprintf(w, "training: best accuracy %.1f%% after %d parks and %d resumes — training survived co-location\n",
		100*trep.BestAccuracy, st.Parks, st.Resumes)
	return summary{
		Parks: st.Parks, Resumes: st.Resumes,
		TrainAccuracy: trep.BestAccuracy,
		Attainment:    srep.Attainment,
		Requests:      srep.Requests,
	}, nil
}

// settle polls the training job until the scheduler has reacted to the
// serving footprint: parked when the footprint conflicts, running when
// it fits, or any terminal state.
func settle(ctx context.Context, th *socflow.JobHandle, conflict bool) socflow.JobStatus {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := th.Status(ctx)
		if err != nil {
			return st
		}
		settled := st.State.Terminal() ||
			(conflict && st.State == socflow.JobParked) ||
			(!conflict && st.State == socflow.JobRunning)
		if settled || time.Now().After(deadline) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitState(ctx context.Context, th *socflow.JobHandle, want socflow.JobState) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := th.Status(ctx)
		if err != nil {
			return err
		}
		if st.State == want {
			return nil
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			return fmt.Errorf("training is %s, want %s", st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
