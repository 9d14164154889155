package exp

import (
	"context"
	"fmt"
	"math"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/serve"
	"socflow/internal/server"
	"socflow/internal/tensor"
)

// colocHour is what the serving job reports back to the experiment
// after each simulated hour, before it advances the tide further.
type colocHour struct {
	hour, busy float64
	socs       int
	res        *serve.Result
}

// ExpColocation runs the serving plane and a training job on one
// control plane through a full diurnal cycle: an SLO-batched,
// pipeline-partitioned serving job resizes with the request tide
// (Controller.Resize), and the scheduler parks the preemptible
// training job whenever the tide leaves too few SoCs, resuming it from
// its park checkpoint as the tide ebbs. The table is the sweep, hour
// by hour; the notes carry the whole-window serving quantiles, the
// training throughput, and the bit-identity check against an
// uninterrupted run of the same training job.
func ExpColocation(o Options) (*Table, error) {
	o = o.withDefaults()
	const (
		stages   = 2
		maxBatch = 8
		maxDelay = 0.02
		slo      = 0.5
		peakRPS  = 1.0
		hours    = 24
	)
	trace := cluster.DefaultTidalTrace()
	startHour, _ := trace.IdleWindow(0.3) // open at night: training starts first

	// The training tenant takes three quarters of the cluster — more
	// than midday leaves free, so the tide must park it.
	trainSoCs := o.NumSoCs * 3 / 4
	groups := o.Groups
	if groups > trainSoCs {
		groups = trainSoCs
	}
	trainClu := cluster.New(cluster.Config{NumSoCs: trainSoCs})
	sc := Scenario{Label: "LeNet5-FMNIST", Model: "lenet5", Dataset: "fmnist", GlobalBatch: 64}

	// Reference: the same job, uninterrupted. The co-located run must
	// reproduce these accuracies bit for bit across its park/resume
	// segments — which requires momentum 0, because a park checkpoint
	// deliberately drops optimizer momentum (it restarts on resume, as
	// on a real on-SoC resume; see core.Job.Resume).
	refJob := jobFor(sc, o)
	refJob.Momentum = 0
	ref, err := (&core.SoCFlow{NumGroups: groups, Mixed: core.MixedOff}).Run(context.Background(), refJob, trainClu)
	if err != nil {
		return nil, err
	}

	srv := server.New(server.Config{TotalSoCs: o.NumSoCs, QueueLimit: 8})
	defer srv.Close()

	// Training job: park/resume over an in-memory checkpoint, exactly
	// the facade's segment protocol. Training is paced against the
	// sweep — each simulated hour grants one epoch of budget — so the
	// hour-by-hour table reflects genuine overlap: functional epochs
	// are otherwise thousands of times faster than the wall-clock tide.
	job := jobFor(sc, o)
	job.Momentum = 0
	budget := make(chan struct{}, hours+job.Epochs)
	var (
		cp     *core.Checkpoint
		accAcc []float64
	)
	trainID, err := srv.Submit(server.JobSpec{
		Tenant: "lab", SoCs: trainSoCs, Epochs: job.Epochs, Preemptible: true,
		Run: func(runCtx context.Context, ctl *server.Controller) (any, error) {
			job.ShouldPark = ctl.ParkRequested
			job.EpochEnd = func(epoch int, acc, simSeconds float64) {
				ctl.ObserveEpoch(epoch)
				// Hold at the boundary until the sweep grants the next
				// epoch, a park is requested, or the segment is canceled.
				for {
					select {
					case <-budget:
						return
					case <-runCtx.Done():
						return
					case <-time.After(time.Millisecond):
					}
					if ctl.ParkRequested() {
						return
					}
				}
			}
			job.StartEpoch, job.Resume = 0, nil
			if ctl.StartEpoch() > 0 && cp != nil {
				job.Resume = cp
				job.StartEpoch = cp.Epoch
			}
			res, err := (&core.SoCFlow{NumGroups: groups, Mixed: core.MixedOff}).Run(runCtx, job, trainClu)
			if err != nil {
				return nil, err
			}
			accAcc = append(accAcc[:min(job.StartEpoch, len(accAcc))], res.EpochAccuracies...)
			if res.Parked {
				cp = &core.Checkpoint{
					Epoch:   job.StartEpoch + len(res.EpochAccuracies),
					Weights: res.FinalWeights,
					State:   res.FinalState,
				}
				return nil, server.ErrParked
			}
			return accAcc, nil
		},
	})
	if err != nil {
		return nil, err
	}

	// Serving job: the tide itself. Each hour it resizes to the busy
	// fraction's footprint, replays that hour's arrivals, and hands the
	// stats to the experiment loop, which waits for the scheduler (and
	// the training job) to settle before letting the next hour begin.
	reg := o.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	ticks := make(chan colocHour)
	acks := make(chan struct{})
	initSoCs, _ := serve.Footprint(o.NumSoCs, stages, trace.BusyFraction(startHour))
	serveID, err := srv.Submit(server.JobSpec{
		Tenant: "web", Priority: 9, SoCs: initSoCs, Epochs: hours,
		Run: func(runCtx context.Context, ctl *server.Controller) (any, error) {
			defer close(ticks)
			sclu := cluster.New(cluster.Config{NumSoCs: o.NumSoCs})
			ds := dataset.MustProfile(sc.Dataset).Generate(dataset.GenOptions{Samples: 128, Seed: o.Seed + 11})
			model := o.Kernels.Track(nn.MustSpec(sc.Model).BuildMicro(tensor.NewRNG(o.Seed+11), ds.Channels(), ds.ImageSize(), ds.Classes))
			eng, err := serve.NewEngine(serve.EngineConfig{
				Spec: nn.MustSpec(sc.Model), Model: model, Cluster: sclu,
				Stages: stages, InC: ds.Channels(), ImgSize: ds.ImageSize(),
			})
			if err != nil {
				return nil, err
			}
			total := &serve.Result{}
			for i := 0; i < hours; i++ {
				hour := math.Mod(startHour+float64(i), 24)
				busy := trace.BusyFraction(hour)
				socs, replicas := serve.Footprint(o.NumSoCs, stages, busy)
				ctl.Resize(socs)
				lg := serve.LoadGen{
					Trace: trace, PeakRPS: peakRPS, SLO: slo,
					Samples: ds.Len(), Seed: o.Seed + uint64(i)*0x9e3779b97f4a7c15,
				}
				res, err := serve.Replay(eng, lg.Arrivals(hour, 1), serve.ReplayConfig{
					Batcher:  serve.BatcherConfig{MaxBatch: maxBatch, MaxDelay: maxDelay},
					Replicas: replicas,
					Metrics:  reg,
					Data:     ds,
				})
				if err != nil {
					return nil, err
				}
				total.Merge(res)
				ctl.ObserveEpoch(i)
				// Hold the tide at this hour until the experiment loop has
				// observed the scheduler's response to it; advancing early
				// would resize (and resume training) mid-observation.
				select {
				case ticks <- colocHour{hour: hour, busy: busy, socs: socs, res: res}:
				case <-runCtx.Done():
					return nil, runCtx.Err()
				}
				select {
				case <-acks:
				case <-runCtx.Done():
					return nil, runCtx.Err()
				}
			}
			return total, nil
		},
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Ext. 5 — Co-location: SLO-batched serving vs parked training (LeNet5/FMNIST, %d SoCs)", o.NumSoCs),
		Header: []string{"hour", "busy_pct", "serve_socs", "requests", "shed",
			"slo_pct", "p99_ms", "train_state", "train_epochs"},
		Notes: []string{
			"extension experiment: the paper's tidal premise run from the serving side — serving resizes with the tide, training harvests what is left",
			fmt.Sprintf("serving: %d-stage pipeline, batch<=%d, SLO %.0f ms, peak %.0f rps", stages, maxBatch, 1000*slo, peakRPS),
		},
	}

	// The sweep: for every hour the serving job reports, wait for the
	// scheduler to settle the training job into the state the new
	// capacity implies, then record the row. Settling bounds include a
	// full functional epoch (parks land on epoch boundaries).
	epochsDuringSweep := 0
	for tick := range ticks {
		needPark := tick.socs+trainSoCs > o.NumSoCs
		var st server.Status
		deadline := time.Now().Add(60 * time.Second)
		for {
			if st, err = srv.Get(trainID); err != nil {
				return nil, err
			}
			if st.State.Terminal() ||
				(needPark && st.State == server.JobParked) ||
				(!needPark && st.State == server.JobRunning) {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("colocation: training stuck in %v with %d serving SoCs at hour %.0f", st.State, tick.socs, tick.hour)
			}
			time.Sleep(2 * time.Millisecond)
		}
		// Grant the hour's epoch and wait for training to bank it, so
		// the epochs column reflects genuine overlap.
		if st.State == server.JobRunning && st.EpochsDone < job.Epochs {
			was := st.EpochsDone
			budget <- struct{}{}
			settle := time.Now().Add(5 * time.Second)
			for time.Now().Before(settle) {
				if st, err = srv.Get(trainID); err != nil {
					return nil, err
				}
				if st.EpochsDone > was || st.State != server.JobRunning {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		epochsDuringSweep = st.EpochsDone
		t.AddRow(fmt.Sprintf("%02d:00", int(math.Round(tick.hour))%24), 100*tick.busy, tick.socs,
			tick.res.Requests, tick.res.Shed, 100*tick.res.Attainment,
			1000*tick.res.P99Seconds, string(st.State), st.EpochsDone)
		acks <- struct{}{}
	}

	// The sweep is over: release the pacing so the (likely parked)
	// training job can drain its remaining epochs at full speed once
	// the serving job exits and capacity returns.
	close(budget)
	serveRes, err := srv.Wait(context.Background(), serveID)
	if err != nil {
		return nil, err
	}
	total := serveRes.(*serve.Result)
	trainRes, err := srv.Wait(context.Background(), trainID)
	if err != nil {
		return nil, err
	}
	finalAcc := trainRes.([]float64)
	st, err := srv.Get(trainID)
	if err != nil {
		return nil, err
	}

	p50, p99 := total.P50Seconds, total.P99Seconds
	if snap := reg.Snapshot(); snap != nil {
		if h, ok := snap.Histograms["serve.latency.seconds"]; ok && h.Count > 0 {
			p50, p99 = h.Quantile(0.50), h.Quantile(0.99)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("serving window: %d requests, %.2f%% SLO attainment, p50 %.1f ms, p99 %.1f ms, %d shed",
			total.Requests, 100*total.Attainment, 1000*p50, 1000*p99, total.Shed),
		fmt.Sprintf("training: %.2f epochs/hour across the sweep (%d/%d epochs), %d parks, %d resumes",
			float64(epochsDuringSweep)/hours, epochsDuringSweep, job.Epochs, st.Parks, st.Resumes))

	identical := len(finalAcc) == len(ref.EpochAccuracies)
	if identical {
		for i := range finalAcc {
			if finalAcc[i] != ref.EpochAccuracies[i] {
				identical = false
				break
			}
		}
	}
	if identical {
		t.Notes = append(t.Notes, "parked training finished bit-identically to the uninterrupted run")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"WARNING: co-located accuracies diverged from the uninterrupted run: %v vs %v",
			finalAcc, ref.EpochAccuracies))
	}
	if st.Parks == 0 {
		t.Notes = append(t.Notes, "WARNING: the tide never parked training; the co-location path was not exercised")
	}
	return t, nil
}
