package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// tinySpec is a fast-but-real tuning job: a single-module benchmark with a
// small budget.
func tinySpec(budget int) JobSpec {
	return JobSpec{Bench: "automotive_bitcount", Budget: budget, Workers: 1}
}

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, &Client{BaseURL: ts.URL}
}

func waitState(t *testing.T, c *Client, id string, want State, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (err %q) while waiting for %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobLifecycleEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, dir)
	defer s.Drain(context.Background())

	st, err := c.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("state = %s, want queued", st.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := c.Wait(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}
	if final.BestSpeedup <= 0 || final.Measurements == 0 {
		t.Fatalf("status not populated: %+v", final)
	}

	res, err := c.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestSpeedup <= 0 || res.Measurements != 4 {
		t.Fatalf("result = %+v", res)
	}

	// The event stream must replay the whole journal, ending in run-end.
	var buf bytes.Buffer
	if err := c.Events(ctx, st.ID, true, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty event stream")
	}
	if !strings.Contains(buf.String(), `"run-end"`) {
		t.Fatal("event stream is missing run-end")
	}
	// Every budget-consuming measurement carries what a resume replays.
	events, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	paid := 0
	for _, e := range events {
		if e.Type != "measure" || !obs.FieldBool(e.Fields, "ok") || obs.FieldBool(e.Fields, "reused") {
			continue
		}
		paid++
		if passes, ok := obs.FieldStrings(e.Fields, "passes"); !ok || len(passes) == 0 {
			t.Fatalf("measure event without passes: %v", e.Fields)
		}
	}
	if paid != 4 {
		t.Fatalf("event stream has %d budget-consuming measurements, want 4", paid)
	}

	// Listing knows the job; unknown ids 404.
	jobs, err := c.Jobs()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs = %v, %v", jobs, err)
	}
	if _, err := c.Job("999999"); err == nil {
		t.Fatal("unknown job must error")
	}
}

// A job whose result.json cannot be written must not end done: done promises
// a readable result. A non-empty directory in the file's place makes the
// final rename fail.
func TestUnwritableResultFailsJob(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, dir)
	defer s.Drain(context.Background())

	st, err := c.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, st.ID, resultFile)
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := c.Wait(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %s (err %q), want failed", final.State, final.Error)
	}
	var linkErr *os.LinkError
	if werr := writeJSONAtomic(blocker, &JobResult{}); !errors.As(werr, &linkErr) || final.Error != werr.Error() {
		t.Fatalf("job error %q, want the rename error %v", final.Error, werr)
	}
}

func TestCancelStopsJobWithinTwoSeconds(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	s, ts, c := newTestServer(t, dir)

	// A budget far larger than the cancel point, so the run would otherwise
	// keep going for a long time.
	st, err := c.Submit(tinySpec(500))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning, time.Minute)
	// Let it take at least one measurement so cancellation hits mid-search.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := c.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Measurements >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never measured")
		}
		time.Sleep(20 * time.Millisecond)
	}

	t0 := time.Now()
	got, err := c.Cancel(st.ID)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > cancelWait+time.Second {
		t.Fatalf("cancel took %v, want < %v", elapsed, cancelWait)
	}
	if got.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", got.State)
	}

	// All goroutines must wind down: drain the server, close the listener,
	// and wait for the count to come back to the baseline.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, dir)
	defer s.Drain(context.Background())

	// One runner: the first job occupies it, the second stays queued.
	first, err := c.Submit(tinySpec(200))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("queued cancel: state = %s", got.State)
	}
	if _, err := c.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
}

func TestRestartResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, c1 := newTestServer(t, dir)

	st, err := c1.Submit(tinySpec(10))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, st.ID, StateRunning, time.Minute)

	// Wait for two journalled measurements before pulling the plug.
	journalPath := filepath.Join(dir, st.ID, journalFile)
	deadline := time.Now().Add(time.Minute)
	for {
		events, err := obs.ReadJournalFile(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		paid := 0
		for _, e := range events {
			if e.Type == "measure" && obs.FieldBool(e.Fields, "ok") && !obs.FieldBool(e.Fields, "reused") {
				paid++
			}
		}
		if paid >= 2 {
			break
		}
		if cur, err := c1.Job(st.ID); err != nil || cur.State.terminal() {
			t.Fatalf("job finished before it could be interrupted: %+v (%v)", cur, err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no measurement was journalled")
		}
		time.Sleep(10 * time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	after, err := s1.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateInterrupted {
		t.Fatalf("state after drain = %s, want interrupted", after.State)
	}
	if after.Measurements < 2 || after.Measurements >= 10 || after.BestSpeedup <= 0 {
		t.Fatalf("interrupted status does not follow the journal: %+v", after)
	}

	// Mimic a SIGKILL rather than a clean drain: the persisted state still
	// says "running" and the journal has a torn trailing line from a write
	// that never finished.
	stPath := filepath.Join(dir, st.ID, stateFile)
	var persisted JobStatus
	if err := readJSON(stPath, &persisted); err != nil {
		t.Fatal(err)
	}
	persisted.State = StateRunning
	if err := writeJSONAtomic(stPath, &persisted); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, st.ID, journalFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"seq":999999,"type":"mea`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Restart on the same directory: recovery re-queues the job and the run
	// resumes from the journal.
	s2, _, c2 := newTestServer(t, dir)
	defer s2.Drain(context.Background())

	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	final, err := c2.Wait(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("resumed job state = %s (err %q)", final.State, final.Error)
	}
	if final.Resumes == 0 {
		t.Fatalf("resume not counted: %+v", final)
	}
	// The incumbent can only improve across a resume.
	if final.BestSpeedup < after.BestSpeedup {
		t.Fatalf("resumed best %v < interrupted best %v", final.BestSpeedup, after.BestSpeedup)
	}
	res, err := c2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Replayed observations consume prior budget: the resumed run finishes
	// the original 10, not 10 more, and the result, the persisted state and
	// the last run-end event all count the whole job's 10.
	if res.Measurements != 10 {
		t.Fatalf("budget accounting: result counts %d measurements, want the whole job's 10 (the interrupted run had %d)",
			res.Measurements, after.Measurements)
	}
	if err := readJSON(stPath, &persisted); err != nil {
		t.Fatal(err)
	}
	if persisted.Measurements != res.Measurements {
		t.Fatalf("state.json counts %d measurements, result.json %d", persisted.Measurements, res.Measurements)
	}

	// The journal must be one valid JSONL stream across both processes:
	// strictly increasing seq, the torn line repaired away, both run-starts
	// and a resume event present, and the budget-consuming measurements
	// numbered 1…10 with no gap or repeat.
	b, err := os.ReadFile(filepath.Join(dir, st.ID, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq int64
	runStarts, resumes, paid, endMeasurements := 0, 0, 0, -1
	for i, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		var e struct {
			Seq    int64          `json:"seq"`
			Type   string         `json:"type"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not valid JSON (torn tail survived?): %q", i+1, line)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("seq not monotonic at line %d: %d after %d", i+1, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Type {
		case "run-start":
			runStarts++
		case "resume":
			resumes++
		case "run-end":
			endMeasurements = int(obs.FieldFloat(e.Fields, "measurements"))
		case "measure":
			if obs.FieldBool(e.Fields, "ok") && !obs.FieldBool(e.Fields, "reused") {
				if paid++; int(obs.FieldFloat(e.Fields, "measurement")) != paid {
					t.Fatalf("budget-consuming measurement %d is numbered %v", paid, e.Fields["measurement"])
				}
			}
		}
	}
	if paid != 10 {
		t.Fatalf("journal has %d budget-consuming measurements, want 10", paid)
	}
	if runStarts != 2 || resumes != 1 {
		t.Fatalf("journal has %d run-starts and %d resumes, want 2 and 1", runStarts, resumes)
	}
	if endMeasurements != res.Measurements {
		t.Fatalf("the last run-end event counts %d measurements, result.json %d", endMeasurements, res.Measurements)
	}

	// The Perfetto export draws the resumed run after the first one, on the
	// report's spliced timeline, not at its restarted clock.
	events, err := obs.ReadJournal(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	checkTraceFollowsReport(t, events)
}

// checkTraceFollowsReport checks a journal's Perfetto export against its
// report. Every compile, measure, gp-fit and acq-max slice sits where the
// streaming Analyzer placed its event: it ends at the spliced time the
// report's WallNS reaches with that event (a compile end_ns's lag earlier)
// and began wall_ns before, clamped at the journal's start. Tuner-thread
// slices do not overlap, and the run slices lie end to end from 0 to WallNS.
func checkTraceFollowsReport(t *testing.T, events []obs.Event) {
	t.Helper()
	type slice struct {
		cat     string
		ts, dur float64
	}
	cats := map[string]string{"compile": "compile", "measure": "measure", "gp-fit": "gp-fit", "acq-max": "acquisition"}
	an := analyze.NewAnalyzer()
	var want []slice
	for i := range events {
		e := &events[i]
		an.Feed(e)
		if cats[e.Type] == "" {
			continue
		}
		end := an.Report().WallNS
		if _, ok := e.Fields["end_ns"]; ok {
			end -= max(e.TimeNS-int64(obs.FieldFloat(e.Fields, "end_ns")), 0)
		}
		start := max(end-int64(obs.FieldFloat(e.Fields, "wall_ns")), 0)
		want = append(want, slice{cats[e.Type], float64(start) / 1e3, float64(end-start) / 1e3})
	}
	var got, tuner, runs []slice
	for _, ev := range analyze.ChromeTrace(events).TraceEvents {
		s := slice{ev.Cat, ev.TS, ev.Dur}
		switch {
		case ev.Ph != "X" || ev.Cat == "span" && ev.Name != "run":
		case ev.Name == "run":
			runs = append(runs, s)
		default:
			got = append(got, s)
			if ev.TID == 0 {
				tuner = append(tuner, s)
			}
		}
	}
	byTime := func(a, b slice) int {
		return cmp.Or(cmp.Compare(a.ts, b.ts), cmp.Compare(a.dur, b.dur), strings.Compare(a.cat, b.cat))
	}
	slices.SortFunc(want, byTime)
	slices.SortFunc(got, byTime)
	if !slices.Equal(got, want) {
		t.Fatalf("trace slices differ from the report's placement:\n got %v\nwant %v", got, want)
	}
	const eps = 1e-6 // µs; ts and dur are converted separately
	slices.SortFunc(tuner, byTime)
	for i := 1; i < len(tuner); i++ {
		if prev := tuner[i-1]; tuner[i].ts < prev.ts+prev.dur-eps {
			t.Fatalf("tuner-thread slices overlap: %v then %v", prev, tuner[i])
		}
	}
	wall := float64(an.Report().WallNS) / 1e3
	if len(runs) == 0 || runs[0].ts != 0 {
		t.Fatalf("run slices %v do not start at 0", runs)
	}
	for i := 1; i < len(runs); i++ {
		if prev := runs[i-1]; runs[i].ts < prev.ts+prev.dur-eps {
			t.Fatalf("run slices overlap: %v then %v", prev, runs[i])
		}
	}
	if last := runs[len(runs)-1]; math.Abs(last.ts+last.dur-wall) > eps {
		t.Fatalf("last run slice %v does not end at the wall, %v µs", last, wall)
	}
}

func TestSubmitValidation(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, dir)
	defer s.Drain(context.Background())

	if _, err := c.Submit(JobSpec{}); err == nil {
		t.Fatal("empty spec must be rejected")
	}
	if _, err := c.Submit(JobSpec{Bench: "no_such_bench"}); err == nil {
		t.Fatal("unknown bench must be rejected")
	}
	if _, err := c.Submit(JobSpec{Bench: "telecom_gsm", Platform: "riscv"}); err == nil {
		t.Fatal("unknown platform must be rejected")
	}
}

func TestDrainRejectsNewSubmissions(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, dir)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(tinySpec(2)); err == nil {
		t.Fatal("submit after drain must fail")
	}
	if _, err := s.Submit(tinySpec(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain: err = %v, want ErrDraining", err)
	}
}

// A client that sends its headers and part of a body is answered and dropped
// once the body deadline passes, on a route that decodes its body and on one
// that never reads it (the server's drain of an unread body blocked too).
func TestHandlerDropsHalfSentBody(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 100 * time.Millisecond
	s, ts, _ := newTestServer(t, t.TempDir())
	defer s.Drain(context.Background())
	for _, target := range []string{"/v1/jobs", "/v1/runners/r1/heartbeat"} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"bench\":", target)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		start := time.Now()
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatalf("%s: connection still open after %v: the half-sent body is never timed out (%v)",
				target, time.Since(start).Round(time.Millisecond), err)
		}
	}
}

// A body past the cap is refused with 413, not truncated into a JSON error.
func TestSubmitRefusesOversizedBody(t *testing.T) {
	s, ts, _ := newTestServer(t, t.TempDir())
	defer s.Drain(context.Background())
	body := `{"bench":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job spec: HTTP %d, want 413", resp.StatusCode)
	}
}
