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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/evalpool"
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
	// StealAfter duplicates a still-running batch onto another runner
	// after this long (default 30s); first completion wins and the
	// straggler's result is discarded.
	StealAfter time.Duration
	// RetryBase and RetryCap bound the exponential backoff between
	// dispatch attempts of one batch (defaults 100ms and 2s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// MaxAttempts caps dispatch attempts (including steals) per batch
	// before the coordinator runs it locally (default 4).
	MaxAttempts int
	// QuarantineAfter quarantines a runner after this many consecutive
	// batch failures (default 3). Quarantine clears on re-register.
	QuarantineAfter int
	// Metrics receives fleet gauges/counters; nil allocates a private
	// registry.
	Metrics *obs.Metrics
	// Client performs batch POSTs; nil uses a default client with no
	// overall timeout (batches are bounded by the job context).
	Client *http.Client
	// Logf, when set, receives dispatch diagnostics (retries, steals,
	// quarantines).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 30 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 3
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

// Coordinator owns the runner registry and dispatches evaluation batches.
// One coordinator serves many jobs; each job gets its own Bind.
type Coordinator struct {
	opts    Options
	mu      sync.Mutex
	runners map[string]*runnerState
	nextSeq int
	batchID atomic.Int64

	gHealthy     *obs.Gauge
	gLost        *obs.Gauge
	gQuarantined *obs.Gauge
	cBatches     *obs.Counter
	cRetries     *obs.Counter
	cSteals      *obs.Counter
	cDuplicates  *obs.Counter
	cFallbacks   *obs.Counter
	cQuarantines *obs.Counter
	hDispatch    *obs.Histogram
}

// New builds a coordinator with opts (zero fields defaulted).
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	m := opts.Metrics
	return &Coordinator{
		opts:         opts,
		runners:      map[string]*runnerState{},
		gHealthy:     m.Gauge("citroen_fleet_runners_healthy"),
		gLost:        m.Gauge("citroen_fleet_runners_lost"),
		gQuarantined: m.Gauge("citroen_fleet_runners_quarantined"),
		cBatches:     m.Counter("citroen_fleet_batches_total"),
		cRetries:     m.Counter("citroen_fleet_batch_retries_total"),
		cSteals:      m.Counter("citroen_fleet_batch_steals_total"),
		cDuplicates:  m.Counter("citroen_fleet_duplicates_discarded_total"),
		cFallbacks:   m.Counter("citroen_fleet_local_fallbacks_total"),
		cQuarantines: m.Counter("citroen_fleet_quarantines_total"),
		hDispatch:    m.Histogram("citroen_fleet_dispatch_seconds", obs.DurationBuckets),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Register adds a runner (or refreshes one re-registering at the same URL:
// same ID, quarantine and failure streak cleared) and returns its registry
// entry.
func (c *Coordinator) Register(url string, workers int) RunnerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for _, r := range c.runners {
		if r.url == url {
			r.workers = workers
			r.lastBeat = now
			r.quarantined = false
			r.fails = 0
			c.refreshGaugesLocked(now)
			return c.infoLocked(r, now)
		}
	}
	c.nextSeq++
	r := &runnerState{
		seq:        c.nextSeq,
		id:         fmt.Sprintf("r%d", c.nextSeq),
		url:        url,
		workers:    workers,
		registered: now,
		lastBeat:   now,
	}
	c.runners[r.id] = r
	c.refreshGaugesLocked(now)
	c.logf("fleet: registered runner %s at %s (workers=%d)", r.id, url, workers)
	return c.infoLocked(r, now)
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

// pickDispatchable selects the runner for a module's batch: FNV hash of the
// module name over the healthy runners in registration order, rotated by
// the attempt index so retries and steals land on a different runner when
// one exists. Sticky assignment is what keeps per-runner cache state (and
// therefore the journalled counters) identical to single-process runs.
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
	h := fnv.New32a()
	io.WriteString(h, module)
	return list[(int(h.Sum32())%len(list)+rotation)%len(list)]
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
	newlyQuarantined := !r.quarantined && r.fails >= c.opts.QuarantineAfter
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
	return &res, nil
}

// JobBinding scopes the coordinator to one tuning job. It is the job's
// core.Task: the evaluator's own task, with Counters folding in every
// accepted batch delta (so the journalled cache statistics match a
// single-process run) and with core.EvalBackend implemented over the fleet,
// which is how the tuner finds where candidate compiles execute.
type JobBinding struct {
	*core.BenchTask
	c    *Coordinator
	cfg  JobConfig
	ev   *bench.Evaluator
	pool *evalpool.Pool // runs locally-executed fallback batches
	feat core.FeatureKind

	mu      sync.Mutex
	agg     obs.CounterSet
	pending []core.EvalIncident // incidents discovered after their fan-out returned
}

// Bind scopes the coordinator to one job evaluating on ev. localWorkers is
// the pool size used when a batch falls back to coordinator-local
// execution (the job's -workers value, so fallback runs keep the
// single-process group schedule).
func (c *Coordinator) Bind(cfg JobConfig, ev *bench.Evaluator, localWorkers int) *JobBinding {
	kind, _ := core.FeatureKindFromString(cfg.Feature)
	b := &JobBinding{BenchTask: ev.Task().(*core.BenchTask), c: c, cfg: cfg, ev: ev, pool: evalpool.New(localWorkers), feat: kind}
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

func (b *JobBinding) addPending(inc core.EvalIncident) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending = append(b.pending, inc)
}

func (b *JobBinding) takePending() []core.EvalIncident {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.pending
	b.pending = nil
	return out
}

// EnsureLocal warm-compiles a candidate into the coordinator evaluator's
// cache without counting the work (the runner that really compiled it
// already did), so the following measurement's dataset-0 compile hits
// exactly as it would single-process.
func (b *JobBinding) EnsureLocal(ctx context.Context, module string, seq []string) error {
	return b.ev.WarmCompile(ctx, module, seq)
}

// moduleBatch is the per-module slice of one fan-out: specs reindexed
// locally with idx mapping back to the caller's spec indices.
type moduleBatch struct {
	module string
	idx    []int
	specs  []core.CompileSpec
	groups [][]int
}

// CompileGroups implements core.EvalBackend: it splits the fan-out into
// per-module batches (groups never span modules), dispatches each to its
// sticky runner concurrently, and stitches results back in spec order.
// Specs a cancelled context left unexecuted keep Ok=false.
func (b *JobBinding) CompileGroups(ctx context.Context, specs []core.CompileSpec, groups [][]int, out []core.CompileOutcome) []core.EvalIncident {
	var order []string
	batches := map[string]*moduleBatch{}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		mod := specs[g[0]].Module
		bt := batches[mod]
		if bt == nil {
			bt = &moduleBatch{module: mod}
			batches[mod] = bt
			order = append(order, mod)
		}
		local := make([]int, 0, len(g))
		for _, gi := range g {
			local = append(local, len(bt.specs))
			bt.idx = append(bt.idx, gi)
			bt.specs = append(bt.specs, specs[gi])
		}
		bt.groups = append(bt.groups, local)
	}

	incidents := b.takePending()
	var (
		wg  sync.WaitGroup
		imu sync.Mutex
	)
	for _, mod := range order {
		bt := batches[mod]
		wg.Add(1)
		go func(bt *moduleBatch) {
			defer wg.Done()
			outs, incs := b.runModuleBatch(ctx, bt)
			imu.Lock()
			incidents = append(incidents, incs...)
			imu.Unlock()
			for li, gi := range bt.idx {
				out[gi] = outs[li]
			}
		}(bt)
	}
	wg.Wait()
	return incidents
}

func (b *JobBinding) runModuleBatch(ctx context.Context, bt *moduleBatch) ([]core.CompileOutcome, []core.EvalIncident) {
	start := time.Now()
	res, attempted, incidents := b.dispatch(ctx, bt)
	if res != nil {
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
		b.c.cFallbacks.Inc()
		b.c.logf("fleet: batch for module %s running locally (attempts exhausted or no healthy runner)", bt.module)
	}
	// A cancelled batch leaves slots !Ok; the tuner checks its own context.
	_ = core.RunGroups(ctx, b.pool, b.BenchTask, b.feat, bt.specs, bt.groups, outs)
	return outs, incidents
}

type attemptResult struct {
	r   *runnerState
	res *BatchResult
	err error
}

// dispatch runs the retry/steal state machine for one batch. It returns
// the first successful result (nil if every attempt failed, no runner was
// dispatchable, or ctx was cancelled), whether any remote attempt was
// made, and the incidents to journal.
func (b *JobBinding) dispatch(ctx context.Context, bt *moduleBatch) (*BatchResult, bool, []core.EvalIncident) {
	c := b.c
	req := BatchRequest{
		ID:     fmt.Sprintf("b%d", c.batchID.Add(1)),
		Config: b.cfg,
		Specs:  bt.specs,
		Groups: bt.groups,
	}
	resc := make(chan attemptResult, c.opts.MaxAttempts+1)
	inflight, tried := 0, 0
	launch := func() *runnerState {
		r := c.pickDispatchable(bt.module, tried)
		if r == nil {
			return nil
		}
		tried++
		inflight++
		go func() {
			res, err := c.postBatch(ctx, r, req)
			resc <- attemptResult{r: r, res: res, err: err}
		}()
		return r
	}
	var incidents []core.EvalIncident
	if launch() == nil {
		return nil, false, nil
	}
	steal := time.NewTimer(c.opts.StealAfter)
	defer steal.Stop()
	retries := 0
	for {
		select {
		case ar := <-resc:
			inflight--
			if ar.err == nil {
				c.noteSuccess(ar.r)
				c.cBatches.Inc()
				if inflight > 0 {
					go b.drainStragglers(bt.module, resc, inflight)
				}
				return ar.res, true, incidents
			}
			c.logf("fleet: batch %s (%s) on runner %s failed: %v", req.ID, bt.module, ar.r.id, ar.err)
			if c.noteFailure(ar.r) {
				c.cQuarantines.Inc()
				incidents = append(incidents, core.EvalIncident{Kind: "quarantine", Runner: ar.r.id, Module: bt.module, Attempt: tried})
			}
			if inflight > 0 {
				continue // a stolen copy is still running; let it race
			}
			if tried >= c.opts.MaxAttempts {
				return nil, true, incidents
			}
			retries++
			backoff := c.opts.RetryBase << (retries - 1)
			if backoff > c.opts.RetryCap {
				backoff = c.opts.RetryCap
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, true, incidents
			}
			r := launch()
			if r == nil {
				return nil, true, incidents
			}
			c.cRetries.Inc()
			incidents = append(incidents, core.EvalIncident{Kind: "retry", Runner: r.id, Module: bt.module, Attempt: tried})
		case <-steal.C:
			if inflight > 0 && tried < c.opts.MaxAttempts {
				if r := launch(); r != nil {
					c.cSteals.Inc()
					incidents = append(incidents, core.EvalIncident{Kind: "steal", Runner: r.id, Module: bt.module, Attempt: tried})
					c.logf("fleet: stole straggler batch %s (%s) onto runner %s", req.ID, bt.module, r.id)
				}
			}
			steal.Reset(c.opts.StealAfter)
		case <-ctx.Done():
			return nil, true, incidents
		}
	}
}

// drainStragglers consumes results that lost the steal race. The winner's
// delta was already accepted, so duplicates are discarded — counted, and
// journalled as a pending incident on the job's next fan-out.
func (b *JobBinding) drainStragglers(module string, resc <-chan attemptResult, n int) {
	for i := 0; i < n; i++ {
		ar := <-resc
		if ar.err == nil {
			b.c.noteSuccess(ar.r)
			b.c.cDuplicates.Inc()
			b.addPending(core.EvalIncident{Kind: "duplicate-discarded", Runner: ar.r.id, Module: module})
			b.c.logf("fleet: discarded duplicate result for module %s from runner %s", module, ar.r.id)
		} else if b.c.noteFailure(ar.r) {
			b.c.cQuarantines.Inc()
			b.addPending(core.EvalIncident{Kind: "quarantine", Runner: ar.r.id, Module: module})
		}
	}
}
