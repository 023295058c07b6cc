package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// The acceptance contract for live introspection: while a job is RUNNING,
// /v1/jobs/{id}/summary returns phase attribution whose per-phase totals sum
// to within 5% of the run's wall time, and the service registry carries the
// serve gauges plus citroen_phase_seconds fed from the same attribution.
func TestLiveSummaryOfRunningJobAndServeMetrics(t *testing.T) {
	dir := t.TempDir()
	met := obs.NewMetrics()
	s, err := New(Config{Dir: dir, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	st, err := c.Submit(tinySpec(400))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning, 10*time.Second)
	if v := met.Gauge("citroen_serve_jobs_running").Value(); v != 1 {
		t.Fatalf("citroen_serve_jobs_running = %v while a job runs, want 1", v)
	}

	// Poll the live summary until the running job has accumulated enough
	// journal for the 5% bound to be meaningful (or finishes first — then the
	// final summary is checked the same way).
	var (
		sum      JobSummary
		wallNow  int64
		deadline = time.Now().Add(60 * time.Second)
	)
	for {
		sum, err = c.Summary(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		wallNow = time.Now().UnixNano()
		if sum.Report.WallNS > 2e9 || sum.Status.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never accumulated 2s of journal (wall %d, state %s)",
				sum.Report.WallNS, sum.Status.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if sum.Status.ID != st.ID || sum.Report.Events == 0 || sum.Report.Runs != 1 || sum.Report.WallNS == 0 {
		t.Fatalf("summary has no analysis: %+v", sum)
	}
	if len(sum.Report.Phases) == 0 || sum.Report.Phases[0].Phase != analyze.PhaseCompile || sum.Report.Phases[0].ElapsedNS <= 0 {
		t.Fatalf("summary has no compile time: %+v", sum.Report.Phases)
	}

	// Exact partition: phases (incl. "other") sum to the journal wall.
	var phaseSum int64
	for _, pt := range sum.Report.Phases {
		phaseSum += pt.ElapsedNS
	}
	if phaseSum != sum.Report.WallNS {
		t.Fatalf("phase sum %d != journal wall %d", phaseSum, sum.Report.WallNS)
	}

	// 5%-of-wall acceptance: against the PROCESS wall (StartedNS → now or
	// FinishedNS), which includes evaluator setup and poll lag the journal
	// cannot see — a small absolute floor absorbs those on fast machines.
	clockWall := wallNow - sum.Status.StartedNS
	if sum.Status.State.terminal() {
		clockWall = sum.Status.FinishedNS - sum.Status.StartedNS
	}
	if clockWall <= 0 {
		t.Fatalf("bogus clock wall %d", clockWall)
	}
	gap := clockWall - phaseSum
	if gap < 0 {
		t.Fatalf("phase sum %d exceeds process wall %d", phaseSum, clockWall)
	}
	if float64(gap) > 0.05*float64(clockWall)+0.5e9 {
		t.Fatalf("phase sum %d not within 5%% of wall %d (gap %v)",
			phaseSum, clockWall, time.Duration(gap))
	}

	if _, err := c.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, st.ID, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Service registry: phase seconds accumulated from the run's journal, the
	// running gauge back at zero, the per-state gauge and wall histogram
	// reflecting the finished job. Gauges refresh just after the terminal
	// state persists, so poll briefly.
	if v := met.Gauge(`citroen_phase_seconds{phase="compile"}`).Value(); v <= 0 {
		t.Fatalf("citroen_phase_seconds{phase=compile} = %v, want > 0", v)
	}
	gaugeDeadline := time.Now().Add(5 * time.Second)
	for {
		running := met.Gauge("citroen_serve_jobs_running").Value()
		cancelled := met.Gauge(`citroen_serve_jobs{state="cancelled"}`).Value()
		walls := met.Histogram("citroen_serve_job_wall_seconds", jobWallBuckets).Count()
		if running == 0 && cancelled == 1 && walls == 1 {
			break
		}
		if time.Now().After(gaugeDeadline) {
			t.Fatalf("gauges never settled: running=%v cancelled=%v walls=%d",
				running, cancelled, walls)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v := met.Gauge("citroen_serve_queue_depth").Value(); v != 0 {
		t.Fatalf("queue depth = %v, want 0", v)
	}
}

// Two jobs tuned at once on one service registry: each job's metrics sink
// adds its own pipeline runs, so the registry's counter is the sum of the
// pipeline_runs row the two jobs' summaries read off their journals.
func TestConcurrentJobsSumCounterRows(t *testing.T) {
	met := obs.NewMetrics()
	s, err := New(Config{Dir: t.TempDir(), Metrics: met, Runners: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	var ids []string
	for _, spec := range []JobSpec{tinySpec(6), {Bench: "telecom_gsm", Budget: 6, Workers: 1, Seed: 2}} {
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var sum int64
	for _, id := range ids {
		st, err := c.Wait(ctx, id, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
		js, err := c.Summary(id)
		if err != nil {
			t.Fatal(err)
		}
		n := js.Report.Counters.Get("pipeline_runs")
		if n == 0 {
			t.Fatalf("job %s: summary counts no pipeline runs: %+v", id, js.Report.Counters)
		}
		sum += n
	}
	if got := met.Counter("citroen_pipeline_runs_total").Value(); got != sum {
		t.Fatalf("citroen_pipeline_runs_total = %d, the jobs' summaries sum to %d", got, sum)
	}
}

// Summary of an unknown job 404s through the client.
func TestSummaryUnknownJob(t *testing.T) {
	_, ts, c := newTestServer(t, t.TempDir())
	defer ts.Close()
	if _, err := c.Summary("999999"); err == nil {
		t.Fatal("summary of unknown job must error")
	}
}
