package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/numeric"
)

// RunnerServer executes evaluation batches on behalf of a coordinator. It
// lazily builds one bench.Evaluator per JobConfig identity and keeps it for
// the process lifetime, so consecutive batches of a job reuse the same
// compile caches — exactly the behaviour the sticky-dispatch determinism
// argument needs.
type RunnerServer struct {
	// Workers bounds the compile pool per batch; 0 means GOMAXPROCS. Every
	// spec writes only its own outcome slot, so this never affects results —
	// only latency.
	Workers int
	// Logf, when set, receives batch diagnostics.
	Logf func(format string, args ...any)

	mu  sync.Mutex
	evs map[string]*lazyEvaluator
}

type lazyEvaluator struct {
	once sync.Once
	ev   *bench.Evaluator
	err  error
	// batchMu serialises this evaluator's batches so the counter bracket in
	// handleBatch is attributable to exactly one batch and each batch opens
	// its cache round where no compile runs; individual compiles stay
	// concurrent inside it.
	batchMu sync.Mutex
}

func (rs *RunnerServer) logf(format string, args ...any) {
	if rs.Logf != nil {
		rs.Logf(format, args...)
	}
}

// evaluator returns the cached evaluator for b on plat (the request's bench
// and platform, already looked up, so a bad name never gets an entry),
// building it on first use. The build (modules + O3 baselines for both
// datasets) can take a while; concurrent batches for the same config block
// on one build.
func (rs *RunnerServer) evaluator(b *bench.Benchmark, plat bench.Platform, seed int64) (*lazyEvaluator, error) {
	// The evaluator identity: everything that changes compile/measure
	// behaviour, with the platform already parsed so two spellings of one
	// platform cannot build two evaluators.
	key := fmt.Sprintf("%s|%s|%d", b.Name, plat.Name, seed)
	rs.mu.Lock()
	if rs.evs == nil {
		rs.evs = map[string]*lazyEvaluator{}
	}
	le := rs.evs[key]
	if le == nil {
		le = &lazyEvaluator{}
		rs.evs[key] = le
	}
	rs.mu.Unlock()
	le.once.Do(func() {
		t := time.Now()
		le.ev, le.err = bench.NewEvaluator(b, plat, seed)
		if le.err == nil {
			rs.logf("fleet runner: built evaluator %s in %s", key, time.Since(t).Round(time.Millisecond))
		}
	})
	return le, le.err
}

// Handler returns the runner's HTTP API: POST /v1/batch executes a batch,
// GET /healthz reports readiness.
func (rs *RunnerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", rs.handleBatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	return BoundBodies(mux, maxBatchBytes, bodyReadTimeout)
}

// bodyReadTimeout bounds how long the runner waits for a request body
// (BoundBodies); a variable so tests can shorten it.
var bodyReadTimeout = 30 * time.Second

// BoundBodies wraps h so that every request body is read in full before h
// runs: at most maxBytes (413 past that), within timeout of the request
// reaching the handler (400 and a closed connection past that). citroend
// and citroenrunner set only ReadHeaderTimeout — a server-wide ReadTimeout
// would cut the /v1/jobs/{id}/events stream — so without it a client that
// sends its headers and then dribbles the body holds a handler goroutine
// forever, in the handler's decode or in the server's drain of an unread
// body. The deadline cannot cancel a long batch's request context: once the
// body is in, the only read left on the connection is net/http's background
// read, which clears it when it starts. After a failed read it stays, and
// the drain fails at once. A request without a body is passed through
// untouched: its background read is already running, and a deadline set now
// would cancel it, and with it the request context of an events stream.
func BoundBodies(h http.Handler, maxBytes int64, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body == nil || r.Body == http.NoBody {
			h.ServeHTTP(w, r)
			return
		}
		// A writer that cannot set deadlines (a test recorder) reads without one.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(timeout))
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
		if err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, "request body: %v", err)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	})
}

// maxBatchBytes caps a batch request body and a batch result body. A batch is
// one module's share of an iteration (tens of specs of at most ~120 pass
// names; per-spec feature maps of a few hundred floats coming back), so real
// traffic stays far below it.
const maxBatchBytes = 16 << 20

func (rs *RunnerServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch request: %v", err)
		return
	}
	kind, ok := core.FeatureKindFromString(req.Config.Feature)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown feature kind %q", req.Config.Feature)
		return
	}
	plat, err := bench.PlatformByName(req.Config.Platform)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := bench.ByName(req.Config.Bench)
	if b == nil {
		httpError(w, http.StatusBadRequest, "unknown bench %q", req.Config.Bench)
		return
	}
	le, err := rs.evaluator(b, plat, req.Config.Seed)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "evaluator: %v", err)
		return
	}
	res := BatchResult{ID: req.ID, Items: make([]core.CompileOutcome, len(req.Specs))}
	le.batchMu.Lock()
	before := le.ev.Counters().Owned()
	// Every batch is a compile-cache round, so a runner's cache is bounded by
	// the rule that bounds a measuring evaluator's; its evictions count in
	// this batch's delta.
	le.ev.BeginRound()
	err = core.RunSpecs(r.Context(), numeric.Workers(rs.Workers), le.ev.Task(), kind, req.Specs, res.Items)
	res.Delta = le.ev.Counters().Owned().Sub(before)
	le.batchMu.Unlock()
	if err != nil {
		// Context cancelled mid-batch (the coordinator's attempt deadline
		// passed or its job ended): the delta is real work but nobody will
		// account for it; report failure so the coordinator's retry path
		// owns recovery.
		httpError(w, http.StatusInternalServerError, "batch aborted: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
	rs.logf("fleet runner: batch %s done (%d specs, +%d compiles)", req.ID, len(req.Specs), res.Delta.Get("pipeline_runs"))
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Agent maintains a runner's registration with the coordinator: it
// registers (retrying until reachable), heartbeats on Interval, re-registers
// when the coordinator forgets it (404 — e.g. a coordinator restart), and
// deregisters on ctx cancellation.
type Agent struct {
	Coordinator string // coordinator base URL, e.g. http://127.0.0.1:8080
	SelfURL     string // this runner's advertised base URL
	Workers     int
	Interval    time.Duration // heartbeat period; default 2s
	Client      *http.Client
	Logf        func(format string, args ...any)
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *Agent) client() *http.Client {
	if a.Client != nil {
		return a.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (a *Agent) interval() time.Duration {
	if a.Interval > 0 {
		return a.Interval
	}
	return 2 * time.Second
}

// Run blocks until ctx is cancelled, keeping the registration alive.
func (a *Agent) Run(ctx context.Context) error {
	id, err := a.register(ctx)
	if err != nil {
		return err
	}
	tick := time.NewTicker(a.interval())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			a.deregister(id)
			return nil
		case <-tick.C:
			code, err := a.post(ctx, "/v1/runners/"+id+"/heartbeat", nil)
			switch {
			case err != nil:
				a.logf("fleet agent: heartbeat: %v", err)
			case code == http.StatusNotFound:
				a.logf("fleet agent: coordinator forgot us; re-registering")
				if nid, rerr := a.register(ctx); rerr == nil {
					id = nid
				} else if ctx.Err() != nil {
					return nil
				}
			case code >= 300:
				a.logf("fleet agent: heartbeat: HTTP %d", code)
			}
		}
	}
}

// register retries with capped backoff until the coordinator accepts the
// registration or ctx ends. Each attempt runs to completion on its own short
// timeout, detached from ctx: a POST abandoned at cancellation may already
// have been recorded by the coordinator, and an id never learned is never
// deregistered. The caller sees ctx.Done next and deregisters the id.
func (a *Agent) register(ctx context.Context) (string, error) {
	body, _ := json.Marshal(RegisterRequest{URL: a.SelfURL, Workers: a.Workers})
	backoff := 250 * time.Millisecond
	for {
		var info RunnerInfo
		actx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownTimeout)
		code, err := a.postJSON(actx, "/v1/runners", body, &info)
		cancel()
		if err == nil && code < 300 {
			a.logf("fleet agent: registered as %s", info.ID)
			return info.ID, nil
		}
		if err == nil {
			err = fmt.Errorf("HTTP %d", code)
		}
		a.logf("fleet agent: register: %v (retrying in %s)", err, backoff)
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// shutdownTimeout bounds the requests that must outlive the run context: the
// deregistration and any register attempt in flight when it is cancelled.
const shutdownTimeout = 2 * time.Second

// deregister is best effort on shutdown; it uses a fresh short-lived
// context because the run context is already cancelled.
func (a *Agent) deregister(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, a.Coordinator+"/v1/runners/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := a.client().Do(req); err == nil {
		resp.Body.Close()
		a.logf("fleet agent: deregistered %s", id)
	}
}

func (a *Agent) post(ctx context.Context, path string, body []byte) (int, error) {
	return a.postJSON(ctx, path, body, nil)
}

func (a *Agent) postJSON(ctx context.Context, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
