package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// lastDecision returns the newest entry of a job's decision log.
func lastDecision(t *testing.T, s *Server, id string) Decision {
	t.Helper()
	log, err := s.Decisions(id)
	if err != nil || len(log) == 0 {
		t.Fatalf("%s: decision log %v, %v", id, log, err)
	}
	return log[len(log)-1]
}

// A preemptible low-priority job parked by a high-priority one logs the
// park with the evictor and its priority, then its resume; the log is
// served at GET /v1/jobs/{id}/decisions, and an unknown ID is a 404.
func TestDecisionLogNamesTheEvictor(t *testing.T) {
	s := New(Config{TotalSoCs: 8})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, echoFactory))
	defer ts.Close()

	loBegin, loStep, loAck := make(chan *Controller), make(chan struct{}), make(chan struct{})
	lo, err := s.Submit(JobSpec{Tenant: "a", SoCs: 8, Epochs: 3, Preemptible: true, Run: fakeRun(3, loBegin, loStep, loAck)})
	if err != nil {
		t.Fatal(err)
	}
	<-loBegin
	if d := lastDecision(t, s, lo); d.Outcome != "admit" || d.Reason != "capacity: 8 of 8 SoCs free, job needs 8" {
		t.Fatalf("lo's admit: %+v", d)
	}

	hiBegin, hiStep := make(chan *Controller), make(chan struct{})
	hi, err := s.Submit(JobSpec{Tenant: "b", Priority: 9, SoCs: 8, Epochs: 1, Run: fakeRun(1, hiBegin, hiStep, nil)})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("evicted by %s (priority 9, 8 SoCs)", hi)
	if d := lastDecision(t, s, lo); d.Outcome != "park" || d.Reason != want {
		t.Fatalf("lo's park: %+v, want reason %q", d, want)
	}
	if d := lastDecision(t, s, hi); d.Outcome != "queue" || !strings.HasPrefix(d.Reason, "reserved:") {
		t.Fatalf("hi waits on a reservation: %+v", d)
	}

	loStep <- struct{}{} // lo reaches its epoch boundary and parks
	<-loAck
	<-hiBegin
	hiStep <- struct{}{}
	if _, err := s.Wait(context.Background(), hi); err != nil {
		t.Fatal(err)
	}
	<-loBegin // hi's exit resumes lo
	if d := lastDecision(t, s, lo); d.Outcome != "resume" {
		t.Fatalf("lo after hi ends: %+v, want a resume", d)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + lo + "/decisions")
	if err != nil {
		t.Fatal(err)
	}
	var log []Decision
	err = json.NewDecoder(resp.Body).Decode(&log)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET decisions: %s, %v", resp.Status, err)
	}
	var outcomes []string
	for _, d := range log {
		outcomes = append(outcomes, d.Outcome)
	}
	if got := strings.Join(outcomes, " "); got != "admit park queue resume" {
		t.Fatalf("lo's logged outcomes over HTTP: %q, want %q", got, "admit park queue resume")
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/decisions"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job's decisions: %v %v", resp, err)
	}
	// The resumed lo waits on loStep until Close cancels it.
}

// A job held by its tenant's quota logs a queue entry naming the quota
// and the tenant's use of it, once, however many rounds hold it.
func TestDecisionLogNamesTheQuota(t *testing.T) {
	s := New(Config{TotalSoCs: 16, Quotas: map[string]Quota{"a": {MaxRunningJobs: 1}, "b": {MaxSoCs: 6}}})
	defer s.Close()
	step := make(chan struct{})
	defer close(step)
	submit := func(tenant string, socs int) string {
		id, err := s.Submit(JobSpec{Tenant: tenant, SoCs: socs, Epochs: 1, Run: fakeRun(1, make(chan *Controller, 1), step, nil)})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit("a", 2)
	a2 := submit("a", 2)
	submit("b", 4)
	b2 := submit("b", 4)
	submit("c", 1) // another round that holds a2 and b2 for the same figures

	if d := lastDecision(t, s, a2); d.Outcome != "queue" || d.Reason != `quota: tenant "a" runs 1 jobs, MaxRunningJobs is 1` {
		t.Fatalf("a2: %+v", d)
	}
	if d := lastDecision(t, s, b2); d.Outcome != "queue" || d.Reason != `quota: tenant "b" holds 4 SoCs, 4 more exceeds MaxSoCs 6` {
		t.Fatalf("b2: %+v", d)
	}
	if log, _ := s.Decisions(a2); len(log) != 1 {
		t.Fatalf("a2 held for one figure over three rounds logged %d entries: %+v", len(log), log)
	}
}

// The log keeps the newest decisionLogSize entries, oldest first.
func TestDecisionLogIsBounded(t *testing.T) {
	var j job
	for i := 0; i < decisionLogSize+10; i++ {
		j.record(0, "queue", fmt.Sprint(i))
	}
	if len(j.log) != decisionLogSize || j.log[0].Reason != "10" || j.log[decisionLogSize-1].Reason != fmt.Sprint(decisionLogSize+9) {
		t.Fatalf("log holds %d entries from %q to %q", len(j.log), j.log[0].Reason, j.log[len(j.log)-1].Reason)
	}
}
