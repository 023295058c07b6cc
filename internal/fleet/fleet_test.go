package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// register adds a runner the test knows to be well formed.
func register(t *testing.T, c *Coordinator, url string, workers int) RunnerInfo {
	t.Helper()
	info, err := c.Register(url, workers)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestRegistryLifecycle(t *testing.T) {
	c := New(Options{HeartbeatTimeout: time.Minute})
	a := register(t, c, "http://a", 2)
	b := register(t, c, "http://b", 4)
	if a.ID == b.ID {
		t.Fatalf("duplicate runner IDs: %s", a.ID)
	}
	if got := c.Runners(); len(got) != 2 || got[0].ID != a.ID || got[0].State != "healthy" {
		t.Fatalf("runners = %+v", got)
	}
	if err := c.Heartbeat(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat("nope"); err != ErrUnknownRunner {
		t.Fatalf("heartbeat unknown = %v, want ErrUnknownRunner", err)
	}
	// Re-registering the same URL keeps the identity and resets health.
	c.mu.Lock()
	c.runners[a.ID].quarantined = true
	c.runners[a.ID].fails = 5
	c.mu.Unlock()
	a2 := register(t, c, "http://a/", 8) // the trailing slash is the same runner
	if a2.ID != a.ID || a2.State != "healthy" || a2.Workers != 8 {
		t.Fatalf("re-register = %+v, want same id healthy", a2)
	}
	if !c.Deregister(b.ID) || c.Deregister(b.ID) {
		t.Fatal("deregister should succeed once")
	}
	if got := c.Runners(); len(got) != 1 || got[0].URL != "http://a" {
		t.Fatalf("after deregister: %+v", got)
	}
}

// A runner URL is a base URL the coordinator appends /v1/batch to: anything
// else is refused at registration, not discovered batch by batch.
func TestRegistryRejectsMalformedURLs(t *testing.T) {
	c := New(Options{HeartbeatTimeout: time.Minute})
	for _, u := range []string{
		"", "runner:8080", "localhost:8080", "ftp://runner", "http://", "http:runner", "http://runner/v1",
		"http://runner//", "http://runner?x=1", "http://runner?", "http://runner#top", "http://%zz",
	} {
		if info, err := c.Register(u, 1); err == nil {
			t.Errorf("Register(%q) = %+v, want an error", u, info)
		}
	}
	if got := c.Runners(); len(got) != 0 {
		t.Fatalf("rejected registrations left runners behind: %+v", got)
	}
	for _, u := range []string{"http://runner:8080/", "https://[::1]:8443"} {
		if info, err := c.Register(u, 1); err != nil || info.URL != strings.TrimSuffix(u, "/") {
			t.Errorf("Register(%q) = %+v, %v; want the URL without its trailing slash", u, info, err)
		}
	}
}

// stickyIndex is FNV-1a modulo n in unsigned arithmetic: never negative, on
// 32-bit platforms too, where int(uint32) wraps.
func TestStickyIndex(t *testing.T) {
	for _, module := range []string{"a", "b", "m", "long_term", "short_term", "main"} {
		h := fnv.New32a()
		io.WriteString(h, module)
		for n := 1; n <= 7; n++ {
			if got, want := stickyIndex(module, n), int(uint64(h.Sum32())%uint64(n)); got != want {
				t.Errorf("stickyIndex(%q, %d) = %d, want %d", module, n, got, want)
			}
		}
	}
	c := New(Options{HeartbeatTimeout: time.Minute})
	a, b := register(t, c, "http://a", 1), register(t, c, "http://b", 1)
	for rotation, want := range []string{b.ID, a.ID, b.ID, a.ID} {
		if r := c.pickDispatchable("b", rotation); r == nil || r.id != want {
			t.Fatalf("module b, attempt %d: runner %v, want %s", rotation+1, r, want)
		}
	}
}

// A runner whose heartbeats stop goes lost and is excluded from dispatch;
// the next heartbeat revives it.
func TestHeartbeatTimeoutMarksLost(t *testing.T) {
	c := New(Options{HeartbeatTimeout: 40 * time.Millisecond})
	info := register(t, c, "http://a", 1)
	if r := c.pickDispatchable("m", 0); r == nil {
		t.Fatal("fresh runner should be dispatchable")
	}
	time.Sleep(80 * time.Millisecond)
	if got := c.Runners()[0].State; got != "lost" {
		t.Fatalf("state = %q, want lost", got)
	}
	if r := c.pickDispatchable("m", 0); r != nil {
		t.Fatalf("lost runner %s still dispatchable", r.id)
	}
	if v := c.gLost.Value(); v != 1 {
		t.Fatalf("lost gauge = %v, want 1", v)
	}
	if err := c.Heartbeat(info.ID); err != nil {
		t.Fatal(err)
	}
	if got := c.Runners()[0].State; got != "healthy" {
		t.Fatalf("state after heartbeat = %q, want healthy", got)
	}
}

func tuneOpts(mem *obs.MemorySink, workers int) core.Options {
	o := core.DefaultOptions()
	o.Budget = 6
	o.Lambda = 4
	o.InitRandom = 2
	o.GPOpts.AdamSteps = 10
	o.Workers = workers
	o.Sink = mem
	return o
}

func newEval(t *testing.T, name string, seed int64) *bench.Evaluator {
	t.Helper()
	ev, err := bench.NewEvaluator(bench.ByName(name), bench.ARM(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// The acceptance contract: a healthy fixed fleet of two runners produces a
// canonical journal byte-identical to the same job run single-process —
// including the cache-statistics events — and journals zero fleet
// incidents.
func TestFleetJournalMatchesSingleProcess(t *testing.T) {
	const seed = 3
	const benchName = "telecom_gsm" // two modules, so both runners get work

	memS := &obs.MemorySink{}
	resS, err := core.NewTuner(newEval(t, benchName, seed).Task(), tuneOpts(memS, 2), seed).Run()
	if err != nil {
		t.Fatal(err)
	}

	rsA := &RunnerServer{Workers: 2}
	rsB := &RunnerServer{Workers: 2}
	tsA := httptest.NewServer(rsA.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(rsB.Handler())
	defer tsB.Close()

	c := New(Options{HeartbeatTimeout: time.Minute})
	register(t, c, tsA.URL, 2)
	register(t, c, tsB.URL, 2)
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	binding := c.Bind(cfg, newEval(t, benchName, seed), 2)

	memF := &obs.MemorySink{}
	resF, err := core.NewTuner(binding.Task(), tuneOpts(memF, 2), seed).Run()
	if err != nil {
		t.Fatal(err)
	}

	if resS.BestSpeedup != resF.BestSpeedup {
		t.Fatalf("best speedup differs: single=%v fleet=%v", resS.BestSpeedup, resF.BestSpeedup)
	}
	for _, e := range memF.Events() {
		if e.Type == "fleet-incident" {
			t.Fatalf("healthy fleet journaled an incident: %+v", e.Fields)
		}
	}
	cS, cF := obs.Canonicalize(memS.Events()), obs.Canonicalize(memF.Events())
	if len(cS) != len(cF) {
		t.Fatalf("event counts differ: single=%d fleet=%d", len(cS), len(cF))
	}
	for i := range cS {
		if !reflect.DeepEqual(cS[i], cF[i]) {
			t.Fatalf("event %d differs between single-process and fleet:\n%+v\nvs\n%+v", i, cS[i], cF[i])
		}
	}
	if c.cBatches.Value() == 0 {
		t.Fatal("no batches were dispatched remotely")
	}
	if binding.Delta().Get("pipeline_runs") == 0 {
		t.Fatal("no remote compilations were aggregated")
	}
}

// A runner that dies mid-batch: its batch is retried on the surviving
// runner, the job still completes, and the retries (and eventual
// quarantine) are journalled as fleet-incident events.
func TestRunnerKilledMidJobCompletesWithRetries(t *testing.T) {
	const seed = 5
	const benchName = "automotive_bitcount"

	var first atomic.Int32
	kill := func(rs *RunnerServer) http.Handler {
		inner := rs.Handler()
		var dead atomic.Bool
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/batch" {
				if first.Add(1) == 1 {
					dead.Store(true) // the first runner to get work dies mid-batch
				}
				if dead.Load() {
					http.Error(w, "runner killed", http.StatusInternalServerError)
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	tsA := httptest.NewServer(kill(&RunnerServer{Workers: 2}))
	defer tsA.Close()
	tsB := httptest.NewServer(kill(&RunnerServer{Workers: 2}))
	defer tsB.Close()

	c := New(Options{HeartbeatTimeout: time.Minute})
	c.retryBase, c.retryCap = 5*time.Millisecond, 20*time.Millisecond
	register(t, c, tsA.URL, 2)
	register(t, c, tsB.URL, 2)
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	binding := c.Bind(cfg, newEval(t, benchName, seed), 2)

	mem := &obs.MemorySink{}
	met := obs.NewMetrics()
	opts := tuneOpts(mem, 2)
	opts.Sink = obs.Multi(mem, analyze.NewMetricsSink(met))
	res, err := core.NewTuner(binding.Task(), opts, seed).Run()
	if err != nil {
		t.Fatalf("job did not survive a killed runner: %v", err)
	}
	if res.BestSpeedup < 1.0 {
		t.Fatalf("degenerate result: %v", res.BestSpeedup)
	}
	kinds := map[string]int{}
	for _, e := range mem.Events() {
		if e.Type == "fleet-incident" {
			kinds[e.Fields["kind"].(string)]++
		}
	}
	if kinds["retry"] == 0 {
		t.Fatalf("no retry incidents journalled; incidents = %v", kinds)
	}
	if got := met.Counter("citroen_fleet_batch_retries_total").Value(); got != int64(kinds["retry"]) {
		t.Fatalf("retry series %d, journalled retry incidents %d", got, kinds["retry"])
	}
}

// A slow runner: its sticky runner answers only after the per-attempt
// deadline has passed. The attempt fails like any other — one failure on
// that runner, one retry on the other — and the late answer, a real result
// of real work, is never folded in: exactly one batch delta is accepted, at
// return and after the slow handler has finished.
func TestSlowRunnerTimesOutAndRetries(t *testing.T) {
	const seed = 7
	const benchName = "automotive_bitcount"

	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	rsSlow := &RunnerServer{Workers: 1}
	rsFast := &RunnerServer{Workers: 1}
	// Prebuild both evaluators so the fast runner answers well inside the
	// deadline, not after a first-batch setup.
	slowEv, err := rsSlow.evaluator(bench.ByName(benchName), bench.ARM(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rsFast.evaluator(bench.ByName(benchName), bench.ARM(), seed); err != nil {
		t.Fatal(err)
	}
	slowDone := make(chan struct{})
	slow := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/batch" {
				inner.ServeHTTP(w, r)
				return
			}
			defer close(slowDone)
			// Read the batch to the end, so the coordinator closing the
			// connection cancels r.Context(); then answer only after that.
			body, _ := io.ReadAll(r.Body)
			<-r.Context().Done()
			r = r.WithContext(context.WithoutCancel(r.Context()))
			r.Body = io.NopCloser(bytes.NewReader(body))
			inner.ServeHTTP(w, r)
		})
	}
	tsSlow := httptest.NewServer(slow(rsSlow.Handler()))
	defer tsSlow.Close()
	tsFast := httptest.NewServer(rsFast.Handler())
	defer tsFast.Close()

	ev := newEval(t, benchName, seed)
	module := ev.Modules()[0]

	c := New(Options{HeartbeatTimeout: time.Minute})
	c.attemptTimeout, c.retryBase = 500*time.Millisecond, time.Millisecond
	// Place the slow runner where the module's sticky hash will pick it.
	var slowInfo RunnerInfo
	if stickyIndex(module, 2) == 0 {
		slowInfo = register(t, c, tsSlow.URL, 1)
		register(t, c, tsFast.URL, 1)
	} else {
		register(t, c, tsFast.URL, 1)
		slowInfo = register(t, c, tsSlow.URL, 1)
	}
	binding := c.Bind(cfg, ev, 1)

	out := make([]core.CompileOutcome, 1)
	specs := []core.CompileSpec{{Module: module, Seq: []string{"mem2reg", "dce"}}}
	incs := binding.RunSpecs(context.Background(), specs, out)
	if !out[0].Ok {
		t.Fatalf("retried batch failed: %+v (incidents %v)", out[0], incs)
	}
	if len(incs) != 1 || incs[0].Kind != "retry" || incs[0].Attempt != 2 || incs[0].Runner == slowInfo.ID {
		t.Fatalf("incidents = %+v, want one retry onto the other runner", incs)
	}
	if got := binding.Delta().Get("pipeline_runs"); got != 1 {
		t.Fatalf("accepted compilations = %d, want exactly 1", got)
	}
	select {
	case <-slowDone:
	case <-time.After(10 * time.Second):
		t.Fatal("slow handler never finished")
	}
	if got := slowEv.ev.Counters().Get("pipeline_runs"); got != 1 {
		t.Fatalf("slow runner compiled %d specs after its deadline, want 1", got)
	}
	if got := binding.Delta().Get("pipeline_runs"); got != 1 {
		t.Fatalf("the late result leaked into aggregation: %d compilations", got)
	}
	for _, r := range c.Runners() {
		if want := map[bool]int64{true: 1, false: 0}[r.ID == slowInfo.ID]; r.Failures != want {
			t.Fatalf("runner %s: %d failures, want %d", r.ID, r.Failures, want)
		}
	}
}

// fault is what faultTransport does to one batch POST.
type fault int

const (
	forward  fault = iota // pass to the runner untouched
	drop                  // forward, then lose the answer: the connection drops after the runner did the work
	badGate               // answer 502 without reaching the runner
	truncate              // forward, then cut the answer's body in half
	hang                  // hold the request until its context ends: a runner that accepted the batch and never answers
)

// faultTransport is the coordinator's Client transport: it forwards batch
// POSTs to the real runners, injecting the fault that plan names for the
// n-th POST (1-based).
type faultTransport struct {
	base http.RoundTripper
	plan func(n int) fault
	n    atomic.Int32
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch f := ft.plan(int(ft.n.Add(1))); f {
	case badGate:
		req.Body.Close()
		return &http.Response{StatusCode: http.StatusBadGateway, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("bad gateway")), Request: req}, nil
	case hang:
		req.Body.Close()
		<-req.Context().Done()
		return nil, req.Context().Err()
	default:
		resp, err := ft.base.RoundTrip(req)
		if err != nil || f == forward {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || f == drop {
			return nil, errors.New("connection reset by peer")
		}
		resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body[:len(body)/2])), -1
		resp.Header.Del("Content-Length")
		return resp, nil
	}
}

// Faults injected below the coordinator's HTTP client, one table: each fault
// alone on the first attempt, and every runner hanging. In every case
// RunSpecs returns within maxAttempts deadlines plus the backoffs (and a
// local compile), the outcomes equal a local core.RunSpecs bit for bit, the
// incidents are the expected ones, and the job's counters fold exactly the
// one accepted batch — none when the batch ran locally.
func TestDispatchFaults(t *testing.T) {
	const seed = 5
	const benchName = "automotive_bitcount"
	const deadline = 500 * time.Millisecond
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	module := newEval(t, benchName, seed).Modules()[0]
	specs := []core.CompileSpec{
		{Module: module, Seq: []string{"mem2reg", "instcombine", "dce"}},
		{Module: module, Seq: []string{"sroa", "gvn"}},
		{Module: module, Seq: []string{"no-such-pass"}},
	}
	// The reference: one batch on a fresh evaluator, and the counters it moved.
	ref := newEval(t, benchName, seed)
	before := ref.Counters().Owned()
	want := make([]core.CompileOutcome, len(specs))
	if err := core.RunSpecs(context.Background(), 1, ref.Task(), core.FeatStats, specs, want); err != nil {
		t.Fatal(err)
	}
	wantDelta := counts(ref.Counters().Owned().Sub(before))
	for i := range want {
		want[i].Wall, want[i].End = 0, time.Time{}
	}

	first := func(f fault) func(int) fault {
		return func(n int) fault {
			if n == 1 {
				return f
			}
			return forward
		}
	}
	cases := []struct {
		name   string
		plan   func(n int) fault
		kinds  []string
		remote bool // the batch was accepted from a runner
	}{
		{"drop", first(drop), []string{"retry"}, true},
		{"5xx", first(badGate), []string{"retry"}, true},
		{"truncate", first(truncate), []string{"retry"}, true},
		{"delay", first(hang), []string{"retry"}, true},
		{"all hang", func(int) fault { return hang }, []string{"retry", "retry", "retry", "local-fallback"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := &http.Transport{}
			defer base.CloseIdleConnections()
			c := New(Options{HeartbeatTimeout: time.Minute, Client: &http.Client{Transport: &faultTransport{base: base, plan: tc.plan}}})
			c.attemptTimeout, c.retryBase, c.retryCap = deadline, 5*time.Millisecond, 20*time.Millisecond
			for i := 0; i < 2; i++ {
				rs := &RunnerServer{Workers: 1}
				// Prebuilt, so a healthy attempt answers well inside the deadline.
				if _, err := rs.evaluator(bench.ByName(benchName), bench.ARM(), seed); err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(rs.Handler())
				defer ts.Close()
				register(t, c, ts.URL, 1)
			}
			binding := c.Bind(cfg, newEval(t, benchName, seed), 1)

			var backoffs time.Duration
			for a := 1; a < c.maxAttempts; a++ {
				backoffs += min(c.retryBase<<(a-1), c.retryCap)
			}
			out := make([]core.CompileOutcome, len(specs))
			start := time.Now()
			incs := binding.RunSpecs(context.Background(), specs, out)
			if took, bound := time.Since(start), time.Duration(c.maxAttempts)*deadline+backoffs+2*time.Second; took > bound {
				t.Fatalf("RunSpecs took %v, bound %v", took, bound)
			}
			for i := range out {
				out[i].Wall, out[i].End = 0, time.Time{}
			}
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("outcomes differ from a local run:\n%+v\nvs\n%+v", out, want)
			}
			var kinds []string
			for _, in := range incs {
				kinds = append(kinds, in.Kind)
			}
			if !reflect.DeepEqual(kinds, tc.kinds) {
				t.Fatalf("incidents %+v, want kinds %v", incs, tc.kinds)
			}
			folded, fresh := counts(binding.Delta()), wantDelta
			if !tc.remote {
				fresh = map[string]int64{}
			}
			if !reflect.DeepEqual(folded, fresh) {
				t.Fatalf("folded counters %v, want %v", folded, fresh)
			}
		})
	}
}

// counts maps a counter set to its values by name.
func counts(s obs.CounterSet) map[string]int64 {
	m := map[string]int64{}
	for _, r := range s {
		m[r.Name] = r.Value
	}
	return m
}

// A job cancelled in the middle of an attempt is not the runner's fault: ten
// cancellations leave its failure count at 0 and it stays healthy.
func TestCancelledAttemptIsNotARunnerFailure(t *testing.T) {
	const seed = 9
	const benchName = "automotive_bitcount"
	arrived := make(chan struct{}, 1)
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // read to the end, so a closed connection cancels r.Context()
		select {
		case arrived <- struct{}{}:
			<-r.Context().Done()
		case <-r.Context().Done():
		}
	}))
	defer stuck.Close()
	c := New(Options{HeartbeatTimeout: time.Minute})
	register(t, c, stuck.URL, 1)
	ev := newEval(t, benchName, seed)
	binding := c.Bind(JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}, ev, 1)
	specs := []core.CompileSpec{{Module: ev.Modules()[0], Seq: []string{"mem2reg"}}}

	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-arrived:
				cancel()
			case <-ctx.Done():
			}
		}()
		out := make([]core.CompileOutcome, 1)
		incs := binding.RunSpecs(ctx, specs, out)
		cancel()
		if out[0].Ok || len(incs) != 0 {
			t.Fatalf("cancel %d: outcome %+v, incidents %v; want an unexecuted spec and no incident", i+1, out[0], incs)
		}
	}
	if r := c.Runners()[0]; r.Failures != 0 || r.State != "healthy" {
		t.Fatalf("after 10 cancelled attempts: %+v, want 0 failures and healthy", r)
	}
}

// A runner registered with a trailing slash gets its batches at
// <url>/v1/batch, not //v1/batch (which its mux would redirect).
func TestTrailingSlashRunnerServesBatch(t *testing.T) {
	const seed = 3
	const benchName = "automotive_bitcount"
	ts := httptest.NewServer((&RunnerServer{Workers: 1}).Handler())
	defer ts.Close()
	c := New(Options{HeartbeatTimeout: time.Minute})
	register(t, c, ts.URL+"/", 1)
	ev := newEval(t, benchName, seed)
	out := make([]core.CompileOutcome, 1)
	specs := []core.CompileSpec{{Module: ev.Modules()[0], Seq: []string{"mem2reg"}}}
	incs := c.Bind(JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}, ev, 1).RunSpecs(context.Background(), specs, out)
	if !out[0].Ok || len(incs) != 0 || c.cBatches.Value() != 1 {
		t.Fatalf("outcome %+v, incidents %v, %d remote batches; want one clean remote batch", out[0], incs, c.cBatches.Value())
	}
}

// Repeated failures quarantine a runner; batches then run locally (with a
// journalled fallback) without touching it, and re-registration clears the
// quarantine.
func TestQuarantineAndLocalFallback(t *testing.T) {
	const seed = 9
	const benchName = "automotive_bitcount"

	var hits atomic.Int32
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer broken.Close()

	c := New(Options{HeartbeatTimeout: time.Minute})
	c.retryBase, c.maxAttempts, c.quarantineAfter = time.Millisecond, 2, 2
	info := register(t, c, broken.URL, 1)
	ev := newEval(t, benchName, seed)
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	binding := c.Bind(cfg, ev, 1)

	out := make([]core.CompileOutcome, 1)
	specs := []core.CompileSpec{{Module: ev.Modules()[0], Seq: []string{"mem2reg"}}}
	incs := binding.RunSpecs(context.Background(), specs, out)
	if !out[0].Ok {
		t.Fatalf("local fallback did not produce a result: %+v", out[0])
	}
	kinds := map[string]int{}
	for _, in := range incs {
		kinds[in.Kind]++
	}
	if kinds["retry"] != 1 || kinds["quarantine"] != 1 || kinds["local-fallback"] != 1 {
		t.Fatalf("incidents = %v, want retry+quarantine+local-fallback", kinds)
	}
	if got := c.Runners()[0].State; got != "quarantined" {
		t.Fatalf("state = %q, want quarantined", got)
	}
	before := hits.Load()
	out2 := make([]core.CompileOutcome, 1)
	incs = binding.RunSpecs(context.Background(), specs, out2)
	if !out2[0].Ok {
		t.Fatal("second local fallback failed")
	}
	if hits.Load() != before {
		t.Fatal("quarantined runner still received batches")
	}
	foundFallback := false
	for _, in := range incs {
		if in.Kind == "local-fallback" {
			foundFallback = true
		}
	}
	if !foundFallback {
		t.Fatalf("fallback with quarantined runner not journalled: %v", incs)
	}
	if got := register(t, c, broken.URL, 1); got.ID != info.ID || got.State != "healthy" {
		t.Fatalf("re-register = %+v, want same id healthy", got)
	}
}

// Two modules' batches of one job that both fall back to local execution run
// at the same time on the one coordinator evaluator, with no serialisation of
// their own (runner batches take lazyEvaluator.batchMu; the fallback takes
// nothing). Their outcomes must equal a serial run's on a fresh evaluator,
// bit for bit; CI repeats this under -race.
func TestConcurrentLocalFallbacksMatchSerial(t *testing.T) {
	const seed = 13
	const benchName = "telecom_gsm"
	// The broken runner answers no batch until both have reached it, so the
	// two fallbacks start together.
	var arrived sync.WaitGroup
	arrived.Add(2)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		arrived.Wait()
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer broken.Close()
	c := New(Options{HeartbeatTimeout: time.Minute})
	c.retryBase, c.maxAttempts, c.quarantineAfter = time.Millisecond, 1, 100
	register(t, c, broken.URL, 1)

	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	ev := newEval(t, benchName, seed)
	if len(ev.Modules()) < 2 {
		t.Fatalf("%s has %d modules, want two", benchName, len(ev.Modules()))
	}
	seqs := [][]string{
		{"mem2reg", "instcombine", "slp-vectorizer"},
		{"mem2reg", "instcombine", "loop-unroll", "gvn"},
		{"sroa", "licm", "loop-sink", "simplifycfg"},
		{"mem2reg", "instcombine"},
	}
	var specs []core.CompileSpec
	for _, mod := range ev.Modules()[:2] {
		for _, seq := range seqs {
			specs = append(specs, core.CompileSpec{Module: mod, Seq: seq})
		}
	}
	out := make([]core.CompileOutcome, len(specs))
	incs := c.Bind(cfg, ev, 2).RunSpecs(context.Background(), specs, out)
	fallbacks := 0
	for _, in := range incs {
		if in.Kind == "local-fallback" {
			fallbacks++
		}
	}
	if fallbacks != 2 {
		t.Fatalf("incidents %v, want both modules' batches to fall back", incs)
	}

	ref := newEval(t, benchName, seed)
	kind, _ := core.FeatureKindFromString(cfg.Feature)
	for i, sp := range specs {
		want := make([]core.CompileOutcome, 1)
		if err := core.RunSpecs(context.Background(), 1, ref.Task(), kind, []core.CompileSpec{sp}, want); err != nil {
			t.Fatal(err)
		}
		got := out[i]
		got.Wall, want[0].Wall = 0, 0
		got.End, want[0].End = time.Time{}, time.Time{}
		if !got.Ok || !reflect.DeepEqual(got, want[0]) {
			t.Fatalf("spec %d (%s %v): concurrent fallback %+v, serial %+v", i, sp.Module, sp.Seq, got, want[0])
		}
	}
}

// With an empty registry the binding degrades to plain local execution:
// no incidents, no fallback accounting — indistinguishable from a
// single-process run.
func TestEmptyRegistryRunsLocallySilently(t *testing.T) {
	const seed = 11
	const benchName = "automotive_bitcount"
	ev := newEval(t, benchName, seed)
	c := New(Options{HeartbeatTimeout: time.Minute})
	binding := c.Bind(JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}, ev, 1)

	out := make([]core.CompileOutcome, 1)
	specs := []core.CompileSpec{{Module: ev.Modules()[0]}}
	incs := binding.RunSpecs(context.Background(), specs, out)
	if !out[0].Ok {
		t.Fatalf("local compile failed: %+v", out[0])
	}
	if len(incs) != 0 {
		t.Fatalf("unexpected incidents with no runners: %v", incs)
	}
	if got := binding.Delta(); len(got) != 0 {
		t.Fatalf("local work leaked into remote aggregation: %+v", got)
	}
}

// The agent registers, heartbeats, re-registers after a coordinator
// restart (404), and deregisters on shutdown.
func TestAgentLifecycle(t *testing.T) {
	c := New(Options{HeartbeatTimeout: time.Minute})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/runners":
			info, _ := c.Register("http://runner", 3)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"id":"`+info.ID+`"}`)
		case r.Method == http.MethodPost && len(r.URL.Path) > len("/v1/runners/") && r.URL.Path[len(r.URL.Path)-len("/heartbeat"):] == "/heartbeat":
			id := r.URL.Path[len("/v1/runners/") : len(r.URL.Path)-len("/heartbeat")]
			if err := c.Heartbeat(id); err != nil {
				http.Error(w, "unknown", http.StatusNotFound)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case r.Method == http.MethodDelete:
			c.Deregister(r.URL.Path[len("/v1/runners/"):])
			w.WriteHeader(http.StatusNoContent)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	a := &Agent{Coordinator: srv.URL, SelfURL: "http://runner", Workers: 3, Interval: 20 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	deadline := time.Now().Add(2 * time.Second)
	for len(c.Runners()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rs := c.Runners()
	if len(rs) != 1 || rs[0].Workers != 3 {
		t.Fatalf("runners = %+v", rs)
	}
	id := rs[0].ID

	// Simulate a coordinator restart: forget the runner; the agent's next
	// heartbeat 404s and it re-registers.
	c.Deregister(id)
	deadline = time.Now().Add(2 * time.Second)
	for len(c.Runners()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(c.Runners()) != 1 {
		t.Fatal("agent did not re-register after coordinator restart")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("agent run: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent did not stop")
	}
	deadline = time.Now().Add(time.Second)
	for len(c.Runners()) != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(c.Runners()); n != 0 {
		t.Fatalf("agent left %d registrations behind", n)
	}
}

// The runner reads request bodies from the network: one past the cap is
// refused with 413 before any evaluator is built.
func TestRunnerRefusesOversizedBatch(t *testing.T) {
	srv := httptest.NewServer((&RunnerServer{}).Handler())
	defer srv.Close()
	body := `{"id":"b1","config":{"bench":"` + strings.Repeat("x", maxBatchBytes) + `"}}`
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: HTTP %d, want 413", resp.StatusCode)
	}
}

// A client that sends its headers and part of a batch is answered and
// dropped once the body deadline passes, instead of holding a handler
// goroutine forever.
func TestRunnerDropsHalfSentBatch(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 100 * time.Millisecond
	srv := httptest.NewServer((&RunnerServer{}).Handler())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /v1/batch HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"id\":")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after %v: the half-sent batch is never timed out (%v)",
			time.Since(start).Round(time.Millisecond), err)
	}
}

// The body deadline ends with the body: a handler that runs past it (a long
// batch) keeps its request context. BoundBodies relies on net/http's
// background read clearing the deadline when it starts, and sets none on a
// request without a body (a GET of the events stream), whose background read
// is already running.
func TestBoundBodiesLiftsDeadlineAfterBody(t *testing.T) {
	const timeout = 50 * time.Millisecond
	srv := httptest.NewServer(BoundBodies(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		select {
		case <-r.Context().Done():
			httpError(w, http.StatusInternalServerError, "request context cancelled")
		case <-time.After(4 * timeout):
			w.Write(body)
		}
	}), 1<<10, timeout))
	defer srv.Close()
	for _, body := range []string{`{"ok":true}`, ""} {
		method := http.MethodPost
		if body == "" {
			method = http.MethodGet
		}
		req, err := http.NewRequest(method, srv.URL, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(got) != body {
			t.Fatalf("%s: HTTP %d %q, want 200 and the body echoed", method, resp.StatusCode, got)
		}
	}
}

// The coordinator reads result bodies from the network too: a runner that
// answers with more than the cap fails the attempt instead of being read to
// the end.
func TestCoordinatorCapsBatchResult(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":"b1","items":[{"ok":true,"err":"%s"}]}`, strings.Repeat("x", maxBatchBytes))
	}))
	defer srv.Close()
	c := New(Options{})
	_, err := c.postBatch(context.Background(), &runnerState{id: "r1", url: srv.URL},
		BatchRequest{ID: "b1", Specs: []core.CompileSpec{{Module: "m"}}})
	if err == nil || !strings.Contains(err.Error(), "decode batch result") {
		t.Fatalf("oversized result: err = %v, want a decode failure", err)
	}
}

// The fleet wire format is core.CompileSpec / core.CompileOutcome themselves.
// The golden bodies were captured from the last commit that had separate wire
// types (bench.TaskSpec, fleet.WireOutcome), since stripped of the request's
// "groups" key and the result items' "stats" maps and nothing else: they must
// decode into today's types and re-encode to the same bytes, the way each
// side writes them (json.Marshal for the request, an Encoder — trailing
// newline — for the result).
func TestWireFormatGolden(t *testing.T) {
	wantReq, err := os.ReadFile("testdata/batch_request.json")
	if err != nil {
		t.Fatal(err)
	}
	var req BatchRequest
	if err := json.Unmarshal(wantReq, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Specs) != 3 || req.Specs[1].Module != "long_term" || len(req.Specs[1].Seq) != 2 || req.Specs[0].Seq != nil {
		t.Fatalf("request decoded wrong: %+v", req)
	}
	if got, err := json.Marshal(req); err != nil || !bytes.Equal(got, wantReq) {
		t.Fatalf("request re-encodes differently (err %v):\n%s\nwant\n%s", err, got, wantReq)
	}

	wantRes, err := os.ReadFile("testdata/batch_result.json")
	if err != nil {
		t.Fatal(err)
	}
	var res BatchResult
	if err := json.Unmarshal(wantRes, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 || !res.Items[0].Ok || res.Items[2].Ok || res.Items[2].Err == "" ||
		res.Items[1].Wall <= 0 || len(res.Items[1].Feature) == 0 {
		t.Fatalf("result decoded wrong: %+v", res.Items)
	}
	var got bytes.Buffer
	if err := json.NewEncoder(&got).Encode(res); err != nil || !bytes.Equal(got.Bytes(), wantRes) {
		t.Fatalf("result re-encodes differently (err %v):\n%s\nwant\n%s", err, got.Bytes(), wantRes)
	}
}

// One executor, three callers: the same specs give the same
// outcomes (everything but Wall) through the evaluator's own task, through a
// runner over HTTP, and through the coordinator's local fallback.
func TestOutcomesEqualLocalRunnerFallback(t *testing.T) {
	const seed = 3
	const benchName = "telecom_gsm"
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	var specs []core.CompileSpec
	for _, mod := range newEval(t, benchName, seed).Modules() {
		specs = append(specs,
			core.CompileSpec{Module: mod},
			core.CompileSpec{Module: mod, Seq: []string{"mem2reg", "instcombine", "dce"}},
			core.CompileSpec{Module: mod, Seq: []string{"mem2reg", "instcombine", "gvn"}},
			core.CompileSpec{Module: mod, Seq: []string{"no-such-pass"}})
	}
	strip := func(outs []core.CompileOutcome) []core.CompileOutcome {
		for i := range outs {
			outs[i].Wall, outs[i].End = 0, time.Time{}
		}
		return outs
	}

	local := make([]core.CompileOutcome, len(specs))
	if err := core.RunSpecs(context.Background(), 2, newEval(t, benchName, seed).Task(), core.FeatStats, specs, local); err != nil {
		t.Fatal(err)
	}
	strip(local)
	if !local[0].Ok || local[3].Ok || local[3].Err == "" || len(local[1].Feature) == 0 {
		t.Fatalf("local outcomes look wrong: %+v", local[:4])
	}

	ts := httptest.NewServer((&RunnerServer{Workers: 2}).Handler())
	defer ts.Close()
	c := New(Options{HeartbeatTimeout: time.Minute})
	register(t, c, ts.URL, 2)
	remote := make([]core.CompileOutcome, len(specs))
	if incs := c.Bind(cfg, newEval(t, benchName, seed), 2).RunSpecs(context.Background(), specs, remote); len(incs) != 0 {
		t.Fatalf("healthy runner reported incidents: %v", incs)
	}
	if c.cBatches.Value() == 0 {
		t.Fatal("nothing was dispatched to the runner")
	}
	if !reflect.DeepEqual(local, strip(remote)) {
		t.Fatalf("runner outcomes differ from local:\n%+v\nvs\n%+v", remote, local)
	}

	fallback := make([]core.CompileOutcome, len(specs))
	New(Options{}).Bind(cfg, newEval(t, benchName, seed), 2).RunSpecs(context.Background(), specs, fallback)
	if !reflect.DeepEqual(local, strip(fallback)) {
		t.Fatalf("fallback outcomes differ from local:\n%+v\nvs\n%+v", fallback, local)
	}
}

// A 200 whose item is neither Ok nor carries an error (what a runner that
// never compiled the spec would send) fails the attempt like any other bad
// response: retries, quarantine and a journalled local fallback follow, and
// the outcome is the local compile's.
func TestMalformedResultFallsBackLocally(t *testing.T) {
	const seed = 9
	const benchName = "automotive_bitcount"
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"items":[{}]}`)
	}))
	defer fake.Close()
	c := New(Options{HeartbeatTimeout: time.Minute})
	c.retryBase = time.Millisecond
	register(t, c, fake.URL, 1)
	ev := newEval(t, benchName, seed)
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	specs := []core.CompileSpec{{Module: ev.Modules()[0], Seq: []string{"mem2reg", "instcombine"}}}

	out := make([]core.CompileOutcome, 1)
	incs := c.Bind(cfg, ev, 1).RunSpecs(context.Background(), specs, out)
	fallback := false
	for _, in := range incs {
		fallback = fallback || in.Kind == "local-fallback"
	}
	if !fallback {
		t.Fatalf("malformed result accepted: incidents %v, outcome %+v", incs, out[0])
	}
	want := make([]core.CompileOutcome, 1)
	if err := core.RunSpecs(context.Background(), 1, newEval(t, benchName, seed).Task(), core.FeatStats, specs, want); err != nil {
		t.Fatal(err)
	}
	out[0].Wall, want[0].Wall = 0, 0
	out[0].End, want[0].End = time.Time{}, time.Time{}
	if !out[0].Ok || !reflect.DeepEqual(out[0], want[0]) {
		t.Fatalf("fallback outcome %+v, local compile %+v", out[0], want[0])
	}
}

// Names arrive from the network: a platform, feature kind or bench the
// parsers do not know is a 400, not a silent ARM / stats run, and leaves no
// evaluator entry behind — a client cycling through bad bench names must not
// grow the runner's cache.
func TestRunnerRejectsUnknownNames(t *testing.T) {
	rs := &RunnerServer{}
	srv := httptest.NewServer(rs.Handler())
	defer srv.Close()
	cfgs := []JobConfig{
		{Bench: "telecom_gsm", Platform: "ARM", Seed: 1},
		{Bench: "telecom_gsm", Platform: "riscv", Seed: 1},
		{Bench: "telecom_gsm", Platform: "arm", Seed: 1, Feature: "bogus"},
	}
	for i := 0; i < 100; i++ {
		cfgs = append(cfgs, JobConfig{Bench: fmt.Sprintf("no_such_bench_%d", i), Platform: "arm", Seed: 1})
	}
	for _, cfg := range cfgs {
		body, _ := json.Marshal(BatchRequest{ID: "b1", Config: cfg, Specs: []core.CompileSpec{{Module: "long_term"}}})
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: HTTP %d, want 400", cfg, resp.StatusCode)
		}
	}
	if len(rs.evs) != 0 {
		t.Fatalf("a rejected request built %d evaluators", len(rs.evs))
	}
}
