package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"socflow/internal/cluster"
)

func defaultTrace() *cluster.TidalTrace {
	tr := cluster.DefaultTidalTrace()
	return &tr
}

// fakeRun builds a channel-driven segment runner: each segment start
// is announced on begin, and every epoch waits for one token on step.
// The test is the clock — there are no sleeps anywhere in this file.
// With a non-nil ack, the runner confirms each epoch (including its
// park decision) before proceeding, so tests can interleave
// deterministically.
func fakeRun(epochs int, begin chan *Controller, step chan struct{}, ack chan struct{}) RunFunc {
	return func(ctx context.Context, ctl *Controller) (any, error) {
		begin <- ctl
		for e := ctl.StartEpoch(); e < epochs; e++ {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-step:
			}
			ctl.ObserveEpoch(e)
			parked := ctl.ParkRequested() && e+1 < epochs
			if ack != nil {
				ack <- struct{}{}
			}
			if parked {
				return nil, ErrParked
			}
		}
		return "trained", nil
	}
}

func TestJobLifecycle(t *testing.T) {
	s := New(Config{TotalSoCs: 8})
	defer s.Close()
	begin := make(chan *Controller)
	step := make(chan struct{})
	id, err := s.Submit(JobSpec{Tenant: "a", SoCs: 4, Epochs: 2, Run: fakeRun(2, begin, step, nil)})
	if err != nil {
		t.Fatal(err)
	}
	ctl := <-begin
	if ctl.StartEpoch() != 0 {
		t.Fatalf("fresh job StartEpoch = %d", ctl.StartEpoch())
	}
	if st, _ := s.Get(id); st.State != JobRunning {
		t.Fatalf("state = %s, want running", st.State)
	}
	step <- struct{}{}
	step <- struct{}{}
	result, err := s.Wait(context.Background(), id)
	if err != nil || result != "trained" {
		t.Fatalf("Wait = %v, %v", result, err)
	}
	st, _ := s.Get(id)
	if st.State != JobDone || st.EpochsDone != 2 {
		t.Fatalf("final status: %+v", st)
	}
}

func TestPriorityPreemptionAndResume(t *testing.T) {
	s := New(Config{TotalSoCs: 8})
	defer s.Close()

	loBegin, loStep, loAck := make(chan *Controller), make(chan struct{}), make(chan struct{})
	lo, err := s.Submit(JobSpec{Tenant: "a", Priority: 0, SoCs: 8, Epochs: 4,
		Preemptible: true, Run: fakeRun(4, loBegin, loStep, loAck)})
	if err != nil {
		t.Fatal(err)
	}
	loCtl := <-loBegin
	if loCtl.StartEpoch() != 0 {
		t.Fatalf("lo StartEpoch = %d", loCtl.StartEpoch())
	}
	loStep <- struct{}{} // lo runs epoch 0...
	<-loAck              // ...and has decided not to park

	hiBegin, hiStep := make(chan *Controller), make(chan struct{})
	hi, err := s.Submit(JobSpec{Tenant: "b", Priority: 9, SoCs: 8, Epochs: 1,
		Run: fakeRun(1, hiBegin, hiStep, nil)})
	if err != nil {
		t.Fatal(err)
	}
	// Submission reschedules synchronously: lo must now be parking.
	if st, _ := s.Get(lo); st.State != JobParking {
		t.Fatalf("lo state after hi submit = %s, want parking", st.State)
	}
	if !loCtl.ParkRequested() {
		t.Fatal("lo controller not asked to park")
	}

	loStep <- struct{}{} // lo reaches the epoch-1 boundary and parks
	<-loAck
	<-hiBegin // ...which frees the cluster for hi
	if st, _ := s.Get(lo); st.State != JobParked || st.EpochsDone != 2 || st.Parks != 1 {
		t.Fatalf("lo parked status: %+v", st)
	}

	hiStep <- struct{}{}
	if _, err := s.Wait(context.Background(), hi); err != nil {
		t.Fatal(err)
	}

	// hi's exit resumes lo from where it parked.
	loCtl2 := <-loBegin
	if loCtl2.StartEpoch() != 2 {
		t.Fatalf("resume StartEpoch = %d, want 2", loCtl2.StartEpoch())
	}
	for e := 2; e < 4; e++ {
		loStep <- struct{}{}
		<-loAck
	}
	if _, err := s.Wait(context.Background(), lo); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Get(lo)
	if st.State != JobDone || st.EpochsDone != 4 || st.Parks != 1 || st.Resumes != 1 {
		t.Fatalf("lo final status: %+v", st)
	}
}

func TestTenantQuotaHeldAcrossQueue(t *testing.T) {
	s := New(Config{
		TotalSoCs: 16,
		Quotas:    map[string]Quota{"a": {MaxRunningJobs: 1}},
	})
	defer s.Close()

	mk := func(tenant string) (string, chan *Controller, chan struct{}) {
		begin, step := make(chan *Controller, 1), make(chan struct{})
		id, err := s.Submit(JobSpec{Tenant: tenant, SoCs: 2, Epochs: 1, Run: fakeRun(1, begin, step, nil)})
		if err != nil {
			t.Fatal(err)
		}
		return id, begin, step
	}
	a1, a1b, a1s := mk("a")
	a2, _, a2s := mk("a")
	b1, _, b1s := mk("b")

	<-a1b // a1 running; a2 must be held back by the quota
	if st, _ := s.Get(a2); st.State != JobQueued {
		t.Fatalf("a2 state = %s, want queued", st.State)
	}
	if st, _ := s.Get(b1); st.State != JobRunning {
		t.Fatalf("b1 state = %s, want running (other tenant unaffected)", st.State)
	}

	a1s <- struct{}{} // a1 finishes; a2 may now start
	if _, err := s.Wait(context.Background(), a1); err != nil {
		t.Fatal(err)
	}
	a2s <- struct{}{}
	b1s <- struct{}{}
	if _, err := s.Wait(context.Background(), a2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), b1); err != nil {
		t.Fatal(err)
	}
	if got := s.PeakRunning("a"); got != 1 {
		t.Fatalf("tenant a peak concurrency = %d, want 1", got)
	}
}

func TestSubmitRejections(t *testing.T) {
	s := New(Config{
		TotalSoCs:  4,
		QueueLimit: 1,
		Quotas:     map[string]Quota{"capped": {MaxSoCs: 2}},
	})
	defer s.Close()

	if _, err := s.Submit(JobSpec{}); err == nil {
		t.Fatal("nil Run must be rejected")
	}
	if _, err := s.Submit(JobSpec{SoCs: 8, Run: fakeRun(1, make(chan *Controller, 1), nil, nil)}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("oversize job: %v", err)
	}
	if _, err := s.Submit(JobSpec{Tenant: "capped", SoCs: 3, Run: fakeRun(1, make(chan *Controller, 1), nil, nil)}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota job: %v", err)
	}

	// Fill the cluster, then the one queue slot, then overflow.
	begin, step := make(chan *Controller), make(chan struct{})
	if _, err := s.Submit(JobSpec{SoCs: 4, Epochs: 1, Run: fakeRun(1, begin, step, nil)}); err != nil {
		t.Fatal(err)
	}
	<-begin
	if _, err := s.Submit(JobSpec{SoCs: 4, Epochs: 1, Run: fakeRun(1, make(chan *Controller, 1), nil, nil)}); err != nil {
		t.Fatal(err)
	}
	// A rejection never becomes a job: its figure travels in the error.
	if _, err := s.Submit(JobSpec{SoCs: 4, Run: fakeRun(1, make(chan *Controller, 1), nil, nil)}); !errors.Is(err, ErrQueueFull) ||
		!strings.Contains(err.Error(), "1 jobs queued, limit 1") {
		t.Fatalf("overflow submit: %v", err)
	}
	close(step)

	s.Close()
	if _, err := s.Submit(JobSpec{Run: fakeRun(1, make(chan *Controller, 1), nil, nil)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := New(Config{TotalSoCs: 4})
	defer s.Close()

	begin, step := make(chan *Controller), make(chan struct{})
	running, err := s.Submit(JobSpec{SoCs: 4, Epochs: 3, Run: fakeRun(3, begin, step, nil)})
	if err != nil {
		t.Fatal(err)
	}
	<-begin
	queued, err := s.Submit(JobSpec{SoCs: 4, Run: fakeRun(1, make(chan *Controller, 1), nil, nil)})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), queued); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel error: %v", err)
	}

	if err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), running); !errors.Is(err, context.Canceled) {
		t.Fatalf("running cancel error: %v", err)
	}
	if st, _ := s.Get(running); st.State != JobCanceled {
		t.Fatalf("state after cancel: %+v", st)
	}
	if err := s.Cancel(running); err != nil {
		t.Fatal("cancel of terminal job must be a no-op")
	}
	if err := s.Cancel("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown: %v", err)
	}
}

// Tidal packing across the simulated day: jobs submitted at the peak
// wait; advancing the clock into the trough starts them all.
func TestTidalWindowPacking(t *testing.T) {
	s := New(Config{
		TotalSoCs: 32,
		Tidal:     defaultTrace(),
		Hour:      14.5, // daytime peak: capacity 32*0.15 = 4
	})
	defer s.Close()

	begins := make([]chan *Controller, 3)
	steps := make([]chan struct{}, 3)
	ids := make([]string, 3)
	for i := range ids {
		begins[i], steps[i] = make(chan *Controller, 1), make(chan struct{})
		id, err := s.Submit(JobSpec{Tenant: "t", SoCs: 8, Epochs: 1, Run: fakeRun(1, begins[i], steps[i], nil)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if st, _ := s.Get(id); st.State != JobQueued {
			t.Fatalf("peak-hour job %s state = %s, want queued", id, st.State)
		}
	}
	if c := s.Capacity(); c >= 8 {
		t.Fatalf("peak capacity = %d, expected < 8", c)
	}

	s.SetHour(2.5) // deep trough: capacity 30
	for i, id := range ids {
		<-begins[i]
		if st, _ := s.Get(id); st.State != JobRunning {
			t.Fatalf("trough job %s state = %s, want running", id, st.State)
		}
	}
	for i, id := range ids {
		steps[i] <- struct{}{}
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOnTerminalFiresOnce(t *testing.T) {
	s := New(Config{TotalSoCs: 4})
	defer s.Close()
	fired := make(chan struct{}, 2)
	begin, step := make(chan *Controller), make(chan struct{})
	id, err := s.Submit(JobSpec{SoCs: 1, Epochs: 1,
		Run: fakeRun(1, begin, step, nil), OnTerminal: func() { fired <- struct{}{} }})
	if err != nil {
		t.Fatal(err)
	}
	<-begin
	step <- struct{}{}
	if _, err := s.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	<-fired
	select {
	case <-fired:
		t.Fatal("OnTerminal fired twice")
	default:
	}
}

func TestListOrderAndUnknown(t *testing.T) {
	s := New(Config{TotalSoCs: 4})
	defer s.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		begin := make(chan *Controller, 1)
		id, err := s.Submit(JobSpec{SoCs: 1, Epochs: 0, Run: fakeRun(0, begin, nil, nil)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	list := s.List()
	if len(list) != 3 {
		t.Fatalf("list length %d", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("list out of submission order: %+v", list)
		}
	}
	if _, err := s.Get("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get unknown: %v", err)
	}
	if _, err := s.Wait(context.Background(), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Wait unknown: %v", err)
	}
}

// The co-location protocol end to end: a non-preemptible serving job
// widens its footprint with the request tide via Controller.Resize,
// the overflow-parking path squeezes preemptible training off the
// cluster at its next epoch boundary, and the ebb resumes it from
// where it parked. One time.Sleep-free exception: the park transition
// happens on the segment goroutine, so the test polls for it.
func TestResizeSqueezesTraining(t *testing.T) {
	s := New(Config{TotalSoCs: 12})
	defer s.Close()

	waitState := func(id string, want State) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			if st, _ := s.Get(id); st.State == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		st, _ := s.Get(id)
		t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
	}

	// Serving holds 2 SoCs at the trough and never parks.
	srvBegin := make(chan *Controller, 1)
	srvDone := make(chan struct{})
	srvID, err := s.Submit(JobSpec{Tenant: "web", Priority: 9, SoCs: 2,
		Run: func(ctx context.Context, ctl *Controller) (any, error) {
			srvBegin <- ctl
			<-srvDone
			return "served", nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	srvCtl := <-srvBegin

	// Training fills most of the rest.
	trBegin, trStep, trAck := make(chan *Controller, 1), make(chan struct{}), make(chan struct{})
	trID, err := s.Submit(JobSpec{Tenant: "lab", SoCs: 8, Epochs: 4,
		Preemptible: true, Run: fakeRun(4, trBegin, trStep, trAck)})
	if err != nil {
		t.Fatal(err)
	}
	<-trBegin
	trStep <- struct{}{} // epoch 0 completes...
	<-trAck              // ...before the tide rises

	// The tide rises: serving needs 10 of the 12 SoCs. Training (8)
	// no longer fits and must be told to park.
	srvCtl.Resize(10)
	if st, _ := s.Get(srvID); st.SoCs != 10 {
		t.Fatalf("serving SoCs after resize = %d, want 10", st.SoCs)
	}
	if st, _ := s.Get(trID); st.State != JobParking {
		t.Fatalf("training state after serving grew = %s, want parking", st.State)
	}
	// Both sides log why: the resize with its figures, and the park with
	// the capacity cut it caused.
	if d := lastDecision(t, s, srvID); d.Outcome != "resize" || d.Reason != "from 2 to 10 SoCs" {
		t.Fatalf("serving's last decision: %+v", d)
	}
	if d := lastDecision(t, s, trID); d.Outcome != "park" || d.Reason != "capacity cut: running jobs hold 18 SoCs, capacity is 12" {
		t.Fatalf("training's last decision: %+v", d)
	}
	trStep <- struct{}{} // training reaches the epoch-1 boundary and parks
	<-trAck
	waitState(trID, JobParked)

	// While the tide is high, training stays off the cluster.
	if st, _ := s.Get(trID); st.EpochsDone != 2 || st.Parks != 1 {
		t.Fatalf("parked training status: %+v", st)
	}

	// Resize clamps to the cluster size.
	srvCtl.Resize(100)
	if st, _ := s.Get(srvID); st.SoCs != 12 {
		t.Fatalf("resize past TotalSoCs gave %d, want clamp to 12", st.SoCs)
	}

	// The tide ebbs: serving narrows, training resumes from epoch 2.
	srvCtl.Resize(2)
	ctl2 := <-trBegin
	if ctl2.StartEpoch() != 2 {
		t.Fatalf("resume StartEpoch = %d, want 2", ctl2.StartEpoch())
	}
	trStep <- struct{}{}
	<-trAck
	trStep <- struct{}{}
	<-trAck
	res, err := s.Wait(context.Background(), trID)
	if err != nil {
		t.Fatal(err)
	}
	if res != "trained" {
		t.Fatalf("training result = %v", res)
	}
	if st, _ := s.Get(trID); st.Resumes != 1 {
		t.Fatalf("training resumes = %d, want 1", st.Resumes)
	}

	close(srvDone)
	if _, err := s.Wait(context.Background(), srvID); err != nil {
		t.Fatal(err)
	}
}

// Drain is the graceful-shutdown path: running preemptible work is
// parked through the normal checkpoint request instead of canceled, so
// a later server generation can resume it; non-preemptible and queued
// jobs are canceled; parked jobs stay parked.
func TestDrainParksPreemptibleJobs(t *testing.T) {
	s := New(Config{TotalSoCs: 8})
	begin := make(chan *Controller, 2)
	stepP := make(chan struct{})
	ackP := make(chan struct{})
	stepH := make(chan struct{})

	pre, err := s.Submit(JobSpec{Tenant: "a", SoCs: 4, Epochs: 4, Preemptible: true, Run: fakeRun(4, begin, stepP, ackP)})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := s.Submit(JobSpec{Tenant: "a", SoCs: 4, Epochs: 4, Run: fakeRun(4, begin, stepH, nil)})
	if err != nil {
		t.Fatal(err)
	}
	<-begin
	<-begin
	queued, err := s.Submit(JobSpec{Tenant: "a", SoCs: 4, Epochs: 4, Run: fakeRun(4, begin, stepH, nil)})
	if err != nil {
		t.Fatal(err)
	}

	// Let the preemptible job finish epoch 0 before the drain begins.
	stepP <- struct{}{}
	<-ackP

	drained := make(chan int, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain marks the preemptible job parking synchronously; wait for
	// the request, then step the job to its next epoch boundary where
	// it honors it.
	for {
		if st, _ := s.Get(pre); st.State == JobParking {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stepP <- struct{}{}
	<-ackP

	if n := <-drained; n != 1 {
		t.Fatalf("Drain parked %d jobs, want 1", n)
	}
	if st, _ := s.Get(pre); st.State != JobParked || st.EpochsDone != 2 {
		t.Fatalf("preemptible job: %+v, want parked after 2 epochs", st)
	}
	if st, _ := s.Get(hard); st.State != JobCanceled {
		t.Fatalf("non-preemptible job: %+v, want canceled", st)
	}
	if st, _ := s.Get(queued); st.State != JobCanceled {
		t.Fatalf("queued job: %+v, want canceled", st)
	}
	if _, err := s.Submit(JobSpec{Tenant: "a", SoCs: 1, Epochs: 1, Run: fakeRun(1, begin, stepH, nil)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: %v, want ErrClosed", err)
	}
}
