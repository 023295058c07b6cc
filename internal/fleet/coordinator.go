package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// ErrUnknownRunner is returned by Heartbeat for an unregistered runner ID;
// the serve layer maps it to HTTP 404, which tells the runner's agent to
// re-register (the coordinator restarted).
var ErrUnknownRunner = errors.New("fleet: unknown runner")

// Options tune the coordinator's failure handling. Zero values take the
// defaults noted on each field.
type Options struct {
	// HeartbeatTimeout marks a runner lost when its last heartbeat is
	// older than this (default 5s). Lost runners receive no batches but
	// recover on their next heartbeat.
	HeartbeatTimeout time.Duration
	// Metrics receives the runner gauges, the batch counter and the
	// dispatch histogram; nil allocates a private registry. The incident
	// counters are read off the journal (analyze.NewMetricsSink).
	Metrics *obs.Metrics
	// Client performs batch POSTs; nil uses a default client with no
	// overall timeout (each attempt is bounded by the per-attempt deadline
	// and the job context).
	Client *http.Client
	// Logf, when set, receives dispatch diagnostics (registrations, failed
	// attempts, quarantines, local fallbacks).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewMetrics()
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

type runnerState struct {
	seq         int // registration order; the sticky-hash ring sorts on this
	id          string
	url         string
	workers     int
	registered  time.Time
	lastBeat    time.Time
	fails       int // consecutive batch failures; reset on success
	quarantined bool
	batches     int64
	failures    int64
}

// The coordinator's retry policy. New copies them into the Coordinator,
// where this package's tests shorten them before first use.
const (
	attemptTimeout  = 30 * time.Second       // deadline of one dispatch attempt; a runner that has not answered by then has failed it
	retryBase       = 100 * time.Millisecond // first backoff between dispatch attempts of one batch
	retryCap        = 2 * time.Second        // backoff ceiling
	maxAttempts     = 4                      // dispatch attempts before a batch runs locally
	quarantineAfter = 3                      // consecutive batch failures that quarantine a runner until it re-registers
)

// Coordinator owns the runner registry and dispatches evaluation batches.
// One coordinator serves many jobs; each job gets its own Bind.
type Coordinator struct {
	opts Options
	// The retry policy (the constants above).
	attemptTimeout, retryBase, retryCap time.Duration
	maxAttempts, quarantineAfter        int

	mu      sync.Mutex
	runners map[string]*runnerState
	nextSeq int
	batchID atomic.Int64

	gHealthy     *obs.Gauge
	gLost        *obs.Gauge
	gQuarantined *obs.Gauge
	cBatches     *obs.Counter
	hDispatch    *obs.Histogram
}

// New builds a coordinator with opts (zero fields defaulted).
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	m := opts.Metrics
	return &Coordinator{
		opts:            opts,
		attemptTimeout:  attemptTimeout,
		retryBase:       retryBase,
		retryCap:        retryCap,
		maxAttempts:     maxAttempts,
		quarantineAfter: quarantineAfter,
		runners:         map[string]*runnerState{},
		gHealthy:        m.Gauge("citroen_fleet_runners_healthy"),
		gLost:           m.Gauge("citroen_fleet_runners_lost"),
		gQuarantined:    m.Gauge("citroen_fleet_runners_quarantined"),
		cBatches:        m.Counter("citroen_fleet_batches_total"),
		hDispatch:       m.Histogram("citroen_fleet_dispatch_seconds", obs.DurationBuckets),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Register adds a runner (or refreshes one re-registering at the same URL:
// same ID, quarantine and failure streak cleared) and returns its registry
// entry. The URL must be an http or https base URL, such as
// http://host:port, with one trailing slash at most; it is stored without
// the slash, so batches go to <url>/v1/batch.
func (c *Coordinator) Register(rawURL string, workers int) (RunnerInfo, error) {
	base, err := runnerBaseURL(rawURL)
	if err != nil {
		return RunnerInfo{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for _, r := range c.runners {
		if r.url == base {
			r.workers = workers
			r.lastBeat = now
			r.quarantined = false
			r.fails = 0
			c.refreshGaugesLocked(now)
			return c.infoLocked(r, now), nil
		}
	}
	c.nextSeq++
	r := &runnerState{
		seq:        c.nextSeq,
		id:         fmt.Sprintf("r%d", c.nextSeq),
		url:        base,
		workers:    workers,
		registered: now,
		lastBeat:   now,
	}
	c.runners[r.id] = r
	c.refreshGaugesLocked(now)
	c.logf("fleet: registered runner %s at %s (workers=%d)", r.id, base, workers)
	return c.infoLocked(r, now), nil
}

// runnerBaseURL validates a runner's advertised URL and trims its one
// trailing slash.
func runnerBaseURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("fleet: runner url: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" ||
		(u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return "", fmt.Errorf("fleet: runner url %q: want http(s)://host[:port] with no path, query or fragment", raw)
	}
	return strings.TrimSuffix(raw, "/"), nil
}

// Heartbeat refreshes a runner's liveness; ErrUnknownRunner if the ID is
// not registered.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runners[id]
	if !ok {
		return ErrUnknownRunner
	}
	now := time.Now()
	r.lastBeat = now
	c.refreshGaugesLocked(now)
	return nil
}

// Deregister removes a runner; reports whether it was registered.
func (c *Coordinator) Deregister(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.runners[id]
	if ok {
		delete(c.runners, id)
		c.refreshGaugesLocked(time.Now())
		c.logf("fleet: deregistered runner %s", id)
	}
	return ok
}

// Runners lists the registry sorted by registration order.
func (c *Coordinator) Runners() []RunnerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.refreshGaugesLocked(now)
	out := make([]RunnerInfo, 0, len(c.runners))
	for _, r := range c.runners {
		out = append(out, c.infoLocked(r, now))
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].RegisteredNS < out[j].RegisteredNS || (out[i].RegisteredNS == out[j].RegisteredNS && out[i].ID < out[j].ID)
	})
	return out
}

func (c *Coordinator) runnerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runners)
}

func (c *Coordinator) stateLocked(r *runnerState, now time.Time) string {
	switch {
	case r.quarantined:
		return "quarantined"
	case now.Sub(r.lastBeat) > c.opts.HeartbeatTimeout:
		return "lost"
	default:
		return "healthy"
	}
}

func (c *Coordinator) infoLocked(r *runnerState, now time.Time) RunnerInfo {
	return RunnerInfo{
		ID:           r.id,
		URL:          r.url,
		Workers:      r.workers,
		State:        c.stateLocked(r, now),
		Batches:      r.batches,
		Failures:     r.failures,
		RegisteredNS: r.registered.UnixNano(),
		LastBeatNS:   r.lastBeat.UnixNano(),
	}
}

func (c *Coordinator) refreshGaugesLocked(now time.Time) {
	var healthy, lost, quarantined int
	for _, r := range c.runners {
		switch c.stateLocked(r, now) {
		case "healthy":
			healthy++
		case "lost":
			lost++
		default:
			quarantined++
		}
	}
	c.gHealthy.Set(float64(healthy))
	c.gLost.Set(float64(lost))
	c.gQuarantined.Set(float64(quarantined))
}

// stickyIndex is the position of module's runner among n healthy runners in
// registration order: the FNV-1a hash of the name modulo n, taken in uint32
// so the index is never negative where int is 32 bits wide.
func stickyIndex(module string, n int) int {
	h := fnv.New32a()
	io.WriteString(h, module)
	return int(h.Sum32() % uint32(n))
}

// pickDispatchable selects the runner for a module's batch: its
// stickyIndex over the healthy runners in registration order, rotated by
// the attempt index so a retry lands on a different runner when one exists.
// Sticky assignment is what keeps per-runner cache state (and therefore the
// journalled counters) identical to single-process runs.
func (c *Coordinator) pickDispatchable(module string, rotation int) *runnerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var list []*runnerState
	for _, r := range c.runners {
		if c.stateLocked(r, now) == "healthy" {
			list = append(list, r)
		}
	}
	if len(list) == 0 {
		return nil
	}
	sort.Slice(list, func(i, j int) bool { return list[i].seq < list[j].seq })
	return list[(stickyIndex(module, len(list))+rotation)%len(list)]
}

func (c *Coordinator) noteSuccess(r *runnerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.fails = 0
	r.batches++
}

// noteFailure records a batch failure; true when it tipped the runner into
// quarantine.
func (c *Coordinator) noteFailure(r *runnerState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.fails++
	r.failures++
	newlyQuarantined := !r.quarantined && r.fails >= c.quarantineAfter
	if newlyQuarantined {
		r.quarantined = true
		c.logf("fleet: quarantined runner %s after %d consecutive failures", r.id, r.fails)
	}
	c.refreshGaugesLocked(time.Now())
	return newlyQuarantined
}

func (c *Coordinator) postBatch(ctx context.Context, r *runnerState, req BatchRequest) (*BatchResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode batch: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.opts.Client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("fleet: runner %s: HTTP %d: %s", r.id, resp.StatusCode, bytes.TrimSpace(msg))
	}
	// A result past the cap reads as truncated JSON and fails the attempt
	// like any other bad response.
	var res BatchResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBatchBytes)).Decode(&res); err != nil {
		return nil, fmt.Errorf("fleet: runner %s: decode batch result: %w", r.id, err)
	}
	if len(res.Items) != len(req.Specs) {
		return nil, fmt.Errorf("fleet: runner %s: %d items for %d specs", r.id, len(res.Items), len(req.Specs))
	}
	// A runner that executed a spec reports it Ok or with its error text; a
	// cancelled batch is a 500. An item with neither was never compiled.
	for i, it := range res.Items {
		if !it.Ok && it.Err == "" {
			return nil, fmt.Errorf("fleet: runner %s: item %d neither ok nor failed", r.id, i)
		}
	}
	return &res, nil
}

// JobBinding scopes the coordinator to one tuning job. It is the job's
// core.Task: the evaluator's own task, with Counters folding in every
// accepted batch delta (so the journalled cache statistics match a
// single-process run) and with core.EvalBackend implemented over the fleet,
// which is how the tuner finds where candidate compiles execute.
type JobBinding struct {
	*core.BenchTask
	c       *Coordinator
	cfg     JobConfig
	ev      *bench.Evaluator
	workers int // compile workers for locally-executed fallback batches
	feat    core.FeatureKind

	mu  sync.Mutex
	agg obs.CounterSet
}

// Bind scopes the coordinator to one job evaluating on ev. localWorkers is
// the worker count used when a batch falls back to coordinator-local
// execution (the job's -workers value, 0 meaning GOMAXPROCS, so fallback
// runs fan out like a single-process run).
func (c *Coordinator) Bind(cfg JobConfig, ev *bench.Evaluator, localWorkers int) *JobBinding {
	kind, _ := core.FeatureKindFromString(cfg.Feature)
	b := &JobBinding{BenchTask: ev.Task().(*core.BenchTask), c: c, cfg: cfg, ev: ev, workers: numeric.Workers(localWorkers), feat: kind}
	b.CountersFn = func() obs.CounterSet { return ev.Counters().Add(b.Delta()) }
	return b
}

// Task returns the binding as the task to hand core.NewTuner.
func (b *JobBinding) Task() core.Task { return b }

// Delta reports the accepted remote counter work so far. The set is never
// mutated in place (Add copies), so the returned slice is safe to keep.
func (b *JobBinding) Delta() obs.CounterSet {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.agg
}

// EnsureLocal warm-compiles a candidate into the coordinator evaluator's
// cache without counting the work (the runner that really compiled it
// already did), so the following measurement's dataset-0 compile hits
// exactly as it would single-process.
func (b *JobBinding) EnsureLocal(ctx context.Context, module string, seq []string) error {
	return b.ev.WarmCompile(ctx, module, seq)
}

// moduleBatch is the per-module slice of one fan-out: the module's specs in
// fan-out order, with idx mapping each back to the caller's spec index.
type moduleBatch struct {
	module string
	idx    []int
	specs  []core.CompileSpec
}

// RunSpecs implements core.EvalBackend: it splits the fan-out into
// per-module batches, dispatches each to its sticky runner concurrently, and
// stitches results back in spec order and incidents in module order. Specs a
// cancelled context left unexecuted keep Ok=false.
func (b *JobBinding) RunSpecs(ctx context.Context, specs []core.CompileSpec, out []core.CompileOutcome) []core.EvalIncident {
	var order []string
	batches := map[string]*moduleBatch{}
	for i, s := range specs {
		bt := batches[s.Module]
		if bt == nil {
			bt = &moduleBatch{module: s.Module}
			batches[s.Module] = bt
			order = append(order, s.Module)
		}
		bt.idx = append(bt.idx, i)
		bt.specs = append(bt.specs, s)
	}

	batchIncs := make([][]core.EvalIncident, len(order))
	numeric.ParallelFor(len(order), len(order), func(k int) {
		bt := batches[order[k]]
		outs, incs := b.runModuleBatch(ctx, bt)
		batchIncs[k] = incs
		for li, gi := range bt.idx {
			out[gi] = outs[li]
		}
	})
	var incidents []core.EvalIncident
	for _, incs := range batchIncs {
		incidents = append(incidents, incs...)
	}
	return incidents
}

func (b *JobBinding) runModuleBatch(ctx context.Context, bt *moduleBatch) ([]core.CompileOutcome, []core.EvalIncident) {
	start := time.Now()
	res, attempted, incidents := b.dispatch(ctx, bt)
	if res != nil {
		// A remote compile ends, on this process's clock, when it arrives.
		now := time.Now()
		for i := range res.Items {
			res.Items[i].End = now
		}
		b.mu.Lock()
		b.agg = b.agg.Add(res.Delta)
		b.mu.Unlock()
		b.c.hDispatch.Observe(time.Since(start).Seconds())
		return res.Items, incidents
	}
	outs := make([]core.CompileOutcome, len(bt.specs))
	if ctx.Err() != nil {
		return outs, incidents
	}
	// Local execution. When runners are registered this is the last-resort
	// fallback and journalled as an incident; with an empty registry it is
	// simply normal single-process operation. Either way the work lands on
	// the coordinator evaluator's own counters, which Counters already
	// reads, so nothing is added to agg.
	if attempted || b.c.runnerCount() > 0 {
		incidents = append(incidents, core.EvalIncident{Kind: "local-fallback", Module: bt.module, Attempt: 0})
		b.c.logf("fleet: batch for module %s running locally (attempts exhausted or no healthy runner)", bt.module)
	}
	// A cancelled batch leaves slots !Ok; the tuner checks its own context.
	_ = core.RunSpecs(ctx, b.workers, b.BenchTask, b.feat, bt.specs, outs)
	return outs, incidents
}

// dispatch posts one batch to up to maxAttempts runners in turn, each
// attempt under attemptTimeout. A failed or timed-out attempt counts against
// its runner, and the next attempt goes, after a capped exponential backoff,
// to the next runner in the ring. An attempt cut short by the end of ctx
// returns at once and counts against nobody. dispatch returns the first
// successful result (nil if every attempt failed, no runner was
// dispatchable, or ctx ended), whether any remote attempt was made, and the
// incidents to journal.
func (b *JobBinding) dispatch(ctx context.Context, bt *moduleBatch) (*BatchResult, bool, []core.EvalIncident) {
	c := b.c
	req := BatchRequest{
		ID:     fmt.Sprintf("b%d", c.batchID.Add(1)),
		Config: b.cfg,
		Specs:  bt.specs,
	}
	var incidents []core.EvalIncident
	for attempt := 1; attempt <= c.maxAttempts; attempt++ {
		r := c.pickDispatchable(bt.module, attempt-1)
		if r == nil {
			return nil, attempt > 1, incidents
		}
		if attempt > 1 {
			incidents = append(incidents, core.EvalIncident{Kind: "retry", Runner: r.id, Module: bt.module, Attempt: attempt})
		}
		actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
		res, err := c.postBatch(actx, r, req)
		cancel()
		if err == nil {
			c.noteSuccess(r)
			c.cBatches.Inc()
			return res, true, incidents
		}
		if ctx.Err() != nil {
			return nil, true, incidents
		}
		c.logf("fleet: batch %s (%s) on runner %s failed: %v", req.ID, bt.module, r.id, err)
		if c.noteFailure(r) {
			incidents = append(incidents, core.EvalIncident{Kind: "quarantine", Runner: r.id, Module: bt.module, Attempt: attempt})
		}
		if attempt == c.maxAttempts {
			break
		}
		backoff := min(c.retryBase<<(attempt-1), c.retryCap)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, true, incidents
		}
	}
	return nil, true, incidents
}
