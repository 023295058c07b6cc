package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// checkBacklog asserts that Backlog() and /healthz's backlog both equal the
// number of jobs in state queued, and returns that number.
func checkBacklog(t *testing.T, s *Server, url, step string) int {
	t.Helper()
	queued := 0
	for _, st := range s.Jobs() {
		if st.State == StateQueued {
			queued++
		}
	}
	if got := s.Backlog(); got != queued {
		t.Fatalf("%s: Backlog() = %d, %d jobs are queued", step, got, queued)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Backlog int `json:"backlog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Backlog != queued {
		t.Fatalf("%s: /healthz backlog = %d, %d jobs are queued", step, h.Backlog, queued)
	}
	return queued
}

func postJob(t *testing.T, url string, spec JobSpec) int {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A cancelled queued job gives its queue slot back at once: with QueueCap 1,
// one job running and one queued then cancelled, the next submit is accepted.
func TestCancelledQueuedJobFreesItsSlot(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	running, err := c.Submit(tinySpec(500))
	if err != nil {
		t.Fatal(err)
	}
	checkBacklog(t, s, ts.URL, "one running")
	queued, err := c.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if n := checkBacklog(t, s, ts.URL, "one running, one queued"); n != 1 {
		t.Fatalf("%d jobs queued, want 1", n)
	}
	if code := postJob(t, ts.URL, tinySpec(4)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit to a full queue: HTTP %d, want 503", code)
	}
	if _, err := c.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if n := checkBacklog(t, s, ts.URL, "queued job cancelled"); n != 0 {
		t.Fatalf("%d jobs queued after the cancel, want 0", n)
	}
	if code := postJob(t, ts.URL, tinySpec(4)); code != http.StatusAccepted {
		t.Fatalf("submit after the queued job was cancelled: HTTP %d, want 202", code)
	}
	if n := checkBacklog(t, s, ts.URL, "resubmitted"); n != 1 {
		t.Fatalf("%d jobs queued after the resubmit, want 1", n)
	}
	if _, err := c.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
}

// QueueCap counts queued jobs only: with one runner busy, QueueCap more jobs
// queue, and the next submit is refused with ErrQueueFull (HTTP 503).
func TestQueueCapRejectsWithErrQueueFull(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(tinySpec(500)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(tinySpec(4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past QueueCap: err = %v, want ErrQueueFull", err)
	}
	if code := postJob(t, ts.URL, tinySpec(4)); code != http.StatusServiceUnavailable {
		t.Fatalf("POST past QueueCap: HTTP %d, want 503", code)
	}
	checkBacklog(t, s, ts.URL, "full queue")
	for _, st := range s.Jobs() {
		if _, _, err := s.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// waitAllDone waits until every job has finished and returns them in id
// order.
func waitAllDone(t *testing.T, s *Server) []JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		jobs := s.Jobs()
		done := 0
		for _, st := range jobs {
			if st.State == StateDone {
				done++
			} else if st.State.terminal() {
				t.Fatalf("job %s ended %s (%q)", st.ID, st.State, st.Error)
			}
		}
		if done == len(jobs) {
			return jobs
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs done", done, len(jobs))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkRanInOrder asserts that with one runner each job started after the
// previous one (in the given order) had finished.
func checkRanInOrder(t *testing.T, jobs []JobStatus) {
	t.Helper()
	for i := 1; i < len(jobs); i++ {
		prev, cur := jobs[i-1], jobs[i]
		if cur.StartedNS < prev.FinishedNS {
			t.Fatalf("job %s started before job %s finished", cur.ID, prev.ID)
		}
	}
}

func TestJobsStartInFIFOOrder(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(tinySpec(2)); err != nil {
			t.Fatal(err)
		}
	}
	checkRanInOrder(t, waitAllDone(t, s))
}

// A backlog recovered from disk is not bounded by QueueCap: all of it runs,
// in id order.
func TestRecoveredBacklogBeyondQueueCapRunsInIDOrder(t *testing.T) {
	dir := t.TempDir()
	const n = 3
	for i := 0; i < n; i++ {
		spec := tinySpec(2)
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		st := JobStatus{ID: fmt.Sprintf("%06d", i), Spec: spec, State: StateQueued}
		jd := filepath.Join(dir, st.ID)
		if err := os.MkdirAll(jd, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSONAtomic(filepath.Join(jd, stateFile), &st); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Dir: dir, QueueCap: 1, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	jobs := waitAllDone(t, s)
	if len(jobs) != n {
		t.Fatalf("%d jobs recovered, want %d", len(jobs), n)
	}
	checkRanInOrder(t, jobs)
}

// Drain cancels the running job, leaves queued jobs queued on disk, and
// closes the done channel of every job, which is what a DELETE waits on.
func TestDrainLeavesQueuedJobsQueued(t *testing.T) {
	dir := t.TempDir()
	s, ts, c := newTestServer(t, dir)
	first, err := c.Submit(tinySpec(500))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, first.ID, StateRunning, time.Minute)
	var queued []string
	for i := 0; i < 2; i++ {
		st, err := c.Submit(tinySpec(4))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st.ID)
	}
	var waiters []<-chan struct{}
	for _, st := range s.Jobs() {
		waiters = append(waiters, s.lookup(st.ID).done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i, w := range waiters {
		select {
		case <-w:
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d not released by Drain", i)
		}
	}
	for _, id := range queued {
		var st JobStatus
		if err := readJSON(filepath.Join(dir, id, stateFile), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Fatalf("job %s is %s on disk after Drain, want queued", id, st.State)
		}
	}
	checkBacklog(t, s, ts.URL, "drained")
}
