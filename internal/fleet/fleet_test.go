package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/evalpool"
	"repro/internal/obs"
)

// stickyIndex mirrors pickDispatchable's hash so tests can predict which of
// n healthy runners a module's batches land on.
func stickyIndex(module string, n int) int {
	h := fnv.New32a()
	io.WriteString(h, module)
	return int(h.Sum32()) % n
}

func TestRegistryLifecycle(t *testing.T) {
	c := New(Options{HeartbeatTimeout: time.Minute})
	a := c.Register("http://a", 2)
	b := c.Register("http://b", 4)
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
	a2 := c.Register("http://a", 8)
	if a2.ID != a.ID || a2.State != "healthy" || a2.Workers != 8 {
		t.Fatalf("re-register = %+v, want same id healthy", a2)
	}
	if !c.Deregister(b.ID) || c.Deregister(b.ID) {
		t.Fatal("deregister should succeed once")
	}
	if got := c.Runners(); len(got) != 1 {
		t.Fatalf("after deregister: %+v", got)
	}
}

// A runner whose heartbeats stop goes lost and is excluded from dispatch;
// the next heartbeat revives it.
func TestHeartbeatTimeoutMarksLost(t *testing.T) {
	c := New(Options{HeartbeatTimeout: 40 * time.Millisecond})
	info := c.Register("http://a", 1)
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
	c.Register(tsA.URL, 2)
	c.Register(tsB.URL, 2)
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

	c := New(Options{
		HeartbeatTimeout: time.Minute,
		RetryBase:        5 * time.Millisecond,
		RetryCap:         20 * time.Millisecond,
	})
	c.Register(tsA.URL, 2)
	c.Register(tsB.URL, 2)
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	binding := c.Bind(cfg, newEval(t, benchName, seed), 2)

	mem := &obs.MemorySink{}
	res, err := core.NewTuner(binding.Task(), tuneOpts(mem, 2), seed).Run()
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
	if c.cRetries.Value() == 0 {
		t.Fatal("retry counter not incremented")
	}
}

// Work stealing: the sticky runner is slow, the deadline passes, the batch
// is duplicated onto the other runner, the first completion wins and the
// straggler's result is discarded exactly once (delta accepted once, one
// duplicate-discarded incident).
func TestStolenDuplicateDiscardedExactlyOnce(t *testing.T) {
	const seed = 7
	const benchName = "automotive_bitcount"

	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	rsSlow := &RunnerServer{Workers: 1}
	rsFast := &RunnerServer{Workers: 1}
	// Prebuild both evaluators so handler latency is dominated by the
	// deliberate delay, not by first-batch setup.
	if _, err := rsSlow.evaluator(bench.ByName(benchName), bench.ARM(), seed); err != nil {
		t.Fatal(err)
	}
	if _, err := rsFast.evaluator(bench.ByName(benchName), bench.ARM(), seed); err != nil {
		t.Fatal(err)
	}
	slow := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/batch" {
				time.Sleep(600 * time.Millisecond)
			}
			inner.ServeHTTP(w, r)
		})
	}
	tsSlow := httptest.NewServer(slow(rsSlow.Handler()))
	defer tsSlow.Close()
	tsFast := httptest.NewServer(rsFast.Handler())
	defer tsFast.Close()

	ev := newEval(t, benchName, seed)
	module := ev.Modules()[0]

	c := New(Options{HeartbeatTimeout: time.Minute, StealAfter: 100 * time.Millisecond})
	// Place the slow runner where the module's sticky hash will pick it.
	if stickyIndex(module, 2) == 0 {
		c.Register(tsSlow.URL, 1)
		c.Register(tsFast.URL, 1)
	} else {
		c.Register(tsFast.URL, 1)
		c.Register(tsSlow.URL, 1)
	}
	binding := c.Bind(cfg, ev, 1)

	out := make([]core.CompileOutcome, 1)
	specs := []core.CompileSpec{{Module: module, Seq: []string{"mem2reg", "dce"}}}
	incs := binding.CompileGroups(context.Background(), specs, [][]int{{0}}, out)
	if !out[0].Ok {
		t.Fatalf("stolen batch failed: %+v (incidents %v)", out[0], incs)
	}
	found := false
	for _, in := range incs {
		if in.Kind == "steal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no steal incident: %v", incs)
	}
	if c.cSteals.Value() != 1 {
		t.Fatalf("steal counter = %d, want 1", c.cSteals.Value())
	}
	if got := binding.Delta().Get("pipeline_runs"); got != 1 {
		t.Fatalf("accepted compilations = %d, want exactly 1 (duplicate delta must be discarded)", got)
	}
	// The straggler finishes later; its result is drained and discarded.
	deadline := time.Now().Add(3 * time.Second)
	for c.cDuplicates.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.cDuplicates.Value(); got != 1 {
		t.Fatalf("duplicates discarded = %d, want exactly 1", got)
	}
	if got := binding.Delta().Get("pipeline_runs"); got != 1 {
		t.Fatalf("duplicate delta leaked into aggregation: %d compilations", got)
	}
	pend := binding.takePending()
	if len(pend) != 1 || pend[0].Kind != "duplicate-discarded" {
		t.Fatalf("pending incidents = %v, want one duplicate-discarded", pend)
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

	c := New(Options{
		HeartbeatTimeout: time.Minute,
		RetryBase:        time.Millisecond,
		MaxAttempts:      2,
		QuarantineAfter:  2,
	})
	info := c.Register(broken.URL, 1)
	ev := newEval(t, benchName, seed)
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	binding := c.Bind(cfg, ev, 1)

	out := make([]core.CompileOutcome, 1)
	specs := []core.CompileSpec{{Module: ev.Modules()[0], Seq: []string{"mem2reg"}}}
	incs := binding.CompileGroups(context.Background(), specs, [][]int{{0}}, out)
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
	incs = binding.CompileGroups(context.Background(), specs, [][]int{{0}}, out2)
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
	if got := c.Register(broken.URL, 1); got.ID != info.ID || got.State != "healthy" {
		t.Fatalf("re-register = %+v, want same id healthy", got)
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
	incs := binding.CompileGroups(context.Background(), specs, [][]int{{0}}, out)
	if !out[0].Ok {
		t.Fatalf("local compile failed: %+v", out[0])
	}
	if len(incs) != 0 {
		t.Fatalf("unexpected incidents with no runners: %v", incs)
	}
	if c.cFallbacks.Value() != 0 {
		t.Fatal("fallback counter moved with an empty registry")
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
			info := c.Register("http://runner", 3)
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
// types (bench.TaskSpec, fleet.WireOutcome): they must decode into today's
// types and re-encode to the same bytes, the way each side writes them
// (json.Marshal for the request, an Encoder — trailing newline — for the
// result).
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
		res.Items[1].Wall <= 0 || len(res.Items[1].Feature) == 0 || len(res.Items[1].Stats) == 0 {
		t.Fatalf("result decoded wrong: %+v", res.Items)
	}
	var got bytes.Buffer
	if err := json.NewEncoder(&got).Encode(res); err != nil || !bytes.Equal(got.Bytes(), wantRes) {
		t.Fatalf("result re-encodes differently (err %v):\n%s\nwant\n%s", err, got.Bytes(), wantRes)
	}
}

// One executor, three callers: the same specs and groups give the same
// outcomes (everything but Wall) through the evaluator's own task, through a
// runner over HTTP, and through the coordinator's local fallback.
func TestOutcomesEqualLocalRunnerFallback(t *testing.T) {
	const seed = 3
	const benchName = "telecom_gsm"
	cfg := JobConfig{Bench: benchName, Platform: "arm", Seed: seed, Feature: "stats"}
	var specs []core.CompileSpec
	var groups [][]int
	for _, mod := range newEval(t, benchName, seed).Modules() {
		g := []int{len(specs), len(specs) + 1, len(specs) + 2, len(specs) + 3}
		specs = append(specs,
			core.CompileSpec{Module: mod},
			core.CompileSpec{Module: mod, Seq: []string{"mem2reg", "instcombine", "dce"}},
			core.CompileSpec{Module: mod, Seq: []string{"mem2reg", "instcombine", "gvn"}},
			core.CompileSpec{Module: mod, Seq: []string{"no-such-pass"}})
		groups = append(groups, g)
	}
	strip := func(outs []core.CompileOutcome) []core.CompileOutcome {
		for i := range outs {
			outs[i].Wall = 0
		}
		return outs
	}

	local := make([]core.CompileOutcome, len(specs))
	if err := core.RunGroups(context.Background(), evalpool.New(2), newEval(t, benchName, seed).Task(), core.FeatStats, specs, groups, local); err != nil {
		t.Fatal(err)
	}
	strip(local)
	if !local[0].Ok || local[3].Ok || local[3].Err == "" || len(local[1].Feature) == 0 {
		t.Fatalf("local outcomes look wrong: %+v", local[:4])
	}

	ts := httptest.NewServer((&RunnerServer{Workers: 2}).Handler())
	defer ts.Close()
	c := New(Options{HeartbeatTimeout: time.Minute})
	c.Register(ts.URL, 2)
	remote := make([]core.CompileOutcome, len(specs))
	if incs := c.Bind(cfg, newEval(t, benchName, seed), 2).CompileGroups(context.Background(), specs, groups, remote); len(incs) != 0 {
		t.Fatalf("healthy runner reported incidents: %v", incs)
	}
	if c.cBatches.Value() == 0 {
		t.Fatal("nothing was dispatched to the runner")
	}
	if !reflect.DeepEqual(local, strip(remote)) {
		t.Fatalf("runner outcomes differ from local:\n%+v\nvs\n%+v", remote, local)
	}

	fallback := make([]core.CompileOutcome, len(specs))
	New(Options{}).Bind(cfg, newEval(t, benchName, seed), 2).CompileGroups(context.Background(), specs, groups, fallback)
	if !reflect.DeepEqual(local, strip(fallback)) {
		t.Fatalf("fallback outcomes differ from local:\n%+v\nvs\n%+v", fallback, local)
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
		body, _ := json.Marshal(BatchRequest{ID: "b1", Config: cfg, Specs: []core.CompileSpec{{Module: "long_term"}}, Groups: [][]int{{0}}})
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
