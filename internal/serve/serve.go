// Package serve turns the CITROEN tuner into a long-running service: a
// bounded FIFO queue of tuning jobs, per-job lifecycle tracking
// (queued → running → done/failed/cancelled), a JSONL event stream per job,
// and periodic checkpointing of tuner state so a restarted server resumes
// interrupted jobs from their last durable snapshot instead of restarting
// the search. cmd/citroend exposes the HTTP API; cmd/citroenctl is the
// client.
//
// On-disk layout, one directory per job under Config.Dir:
//
//	<dir>/<id>/state.json       job spec + lifecycle state (atomic writes)
//	<dir>/<id>/checkpoint.json  last tuner snapshot (atomic writes)
//	<dir>/<id>/journal.jsonl    structured event journal, appended across
//	                            restarts with continuous sequence numbers
//	<dir>/<id>/result.json      final summary, written once on completion
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/evalpool"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// Config sizes the service.
type Config struct {
	// Dir is the root of the per-job state directories.
	Dir string
	// QueueCap bounds the backlog of accepted-but-not-running jobs; a full
	// queue rejects submissions (HTTP 503). Default 16.
	QueueCap int
	// Runners is the number of jobs tuned concurrently. Default 1: tuning
	// runs are themselves internally parallel (JobSpec.Workers).
	Runners int
	// CheckpointEvery is the default measurement interval between durable
	// tuner snapshots for jobs that do not set their own. Default 5.
	CheckpointEvery int
	// Metrics receives service-level counters (jobs submitted/finished by
	// outcome). nil uses a private registry.
	Metrics *obs.Metrics
	// Fleet, when set, dispatches candidate-evaluation batches to the
	// coordinator's registered remote runners instead of compiling
	// everything in-process, and enables the /v1/runners API. Jobs fall
	// back to local execution while no runner is registered.
	Fleet *fleet.Coordinator
}

// Server owns the job queue and state directories.
type Server struct {
	cfg   Config
	queue *evalpool.Queue

	// baseCtx parents every job context; baseCancel is the drain switch.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	nextID   int
	draining bool

	// met is the service-level registry; per-job phase attribution
	// (citroen_phase_seconds) and the service gauges accumulate here.
	met *obs.Metrics

	mSubmitted   *obs.Counter
	mDone        *obs.Counter
	mFailed      *obs.Counter
	mCancelled   *obs.Counter
	mInterrupted *obs.Counter
	mResumed     *obs.Counter

	gQueueDepth *obs.Gauge
	gRunning    *obs.Gauge
	gState      map[State]*obs.Gauge
	hJobWall    *obs.Histogram
}

// jobWallBuckets spans sub-second smoke jobs through hour-long tuning runs.
var jobWallBuckets = []float64{0.1, 0.5, 1, 5, 15, 60, 300, 900, 3600}

// ErrDraining rejects submissions while the server shuts down.
var ErrDraining = errors.New("serve: server is draining")

// ErrQueueFull mirrors the queue's backpressure signal.
var ErrQueueFull = evalpool.ErrQueueFull

// ErrUnknownJob is returned for ids the server has never seen.
var ErrUnknownJob = errors.New("serve: unknown job")

// New builds the server, recovers persisted jobs from cfg.Dir, and re-queues
// every job that was queued, running or interrupted when the previous
// process died — running jobs resume from their last checkpoint.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.Runners <= 0 {
		cfg.Runners = 1
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 5
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	met := cfg.Metrics
	if met == nil {
		met = obs.NewMetrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		queue:      evalpool.NewQueue(cfg.Runners, cfg.QueueCap),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*job{},
		met:        met,

		mSubmitted:   met.Counter("serve_jobs_submitted_total"),
		mDone:        met.Counter("serve_jobs_done_total"),
		mFailed:      met.Counter("serve_jobs_failed_total"),
		mCancelled:   met.Counter("serve_jobs_cancelled_total"),
		mInterrupted: met.Counter("serve_jobs_interrupted_total"),
		mResumed:     met.Counter("serve_jobs_resumed_total"),

		gQueueDepth: met.Gauge("citroen_serve_queue_depth"),
		gRunning:    met.Gauge("citroen_serve_jobs_running"),
		gState:      map[State]*obs.Gauge{},
		hJobWall:    met.Histogram("citroen_serve_job_wall_seconds", jobWallBuckets),
	}
	for _, st := range []State{StateQueued, StateRunning, StateDone,
		StateFailed, StateCancelled, StateInterrupted} {
		s.gState[st] = met.Gauge(`citroen_serve_jobs{state="` + string(st) + `"}`)
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	s.refreshGauges()
	return s, nil
}

// refreshGauges recomputes the queue-depth, running-count and per-state job
// gauges from current state. Callers must not hold any job's mu (snapshot
// locks each job in turn); holding s.mu is also forbidden.
func (s *Server) refreshGauges() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	counts := map[State]int{}
	for _, j := range jobs {
		counts[j.snapshot().State]++
	}
	for st, g := range s.gState {
		g.Set(float64(counts[st]))
	}
	s.gRunning.Set(float64(counts[StateRunning]))
	s.gQueueDepth.Set(float64(s.queue.Backlog()))
}

// recover loads persisted jobs and re-queues the unfinished ones in id
// (submission) order, preserving FIFO across restarts.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // ids are zero-padded, so lexical == numeric order
	var requeue []*job
	for _, name := range names {
		dir := filepath.Join(s.cfg.Dir, name)
		var st JobStatus
		if err := readJSON(filepath.Join(dir, stateFile), &st); err != nil {
			continue // not a job directory (or torn before first persist)
		}
		j := &job{status: st, dir: dir, done: make(chan struct{})}
		if n, err := strconv.Atoi(st.ID); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		switch st.State {
		case StateQueued, StateRunning, StateInterrupted:
			if st.State != StateQueued {
				// The previous process died (or drained) mid-run; the next run
				// warm-starts from checkpoint.json.
				j.status.Resumes++
				s.mResumed.Inc()
			}
			j.status.State = StateQueued
			j.status.Error = ""
			writeJSONAtomic(filepath.Join(dir, stateFile), &j.status)
			requeue = append(requeue, j)
		default:
			close(j.done) // terminal: nothing will ever touch it again
		}
		s.jobs[st.ID] = j
		s.order = append(s.order, st.ID)
	}
	// Recovered backlogs may exceed the queue capacity; a background
	// submitter preserves order and blocks on Submit until runners free
	// capacity (or the server drains).
	if len(requeue) > 0 {
		go func() {
			for _, j := range requeue {
				j := j
				if err := s.queue.Submit(s.baseCtx, func() { s.runJob(j) }); err != nil {
					return // draining or closed; jobs stay queued on disk
				}
			}
		}()
	}
	return nil
}

// Submit accepts a new tuning job, persists it and enqueues it. Returns the
// queued status, ErrDraining during shutdown, or ErrQueueFull when the
// backlog is at capacity.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.normalize(s.cfg.CheckpointEvery); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	id := fmt.Sprintf("%06d", s.nextID)
	s.nextID++
	dir := filepath.Join(s.cfg.Dir, id)
	j := &job{
		status: JobStatus{
			ID: id, Spec: spec, State: StateQueued,
			CreatedNS: time.Now().UnixNano(),
		},
		dir:  dir,
		done: make(chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.forget(id)
		return JobStatus{}, err
	}
	if err := writeJSONAtomic(filepath.Join(dir, stateFile), &j.status); err != nil {
		s.forget(id)
		return JobStatus{}, err
	}
	queued := j.snapshot() // before a runner can pick the job up and mark it running
	if err := s.queue.TrySubmit(func() { s.runJob(j) }); err != nil {
		s.forget(id)
		os.RemoveAll(dir)
		return JobStatus{}, err
	}
	s.mSubmitted.Inc()
	s.refreshGauges()
	return queued, nil
}

func (s *Server) forget(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// Job returns a job's current status.
func (s *Server) Job(id string) (JobStatus, error) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// Jobs lists all known jobs in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j := s.lookup(id); j != nil {
			out = append(out, j.snapshot())
		}
	}
	return out
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Cancel stops a job: a queued job is marked cancelled immediately, a
// running job's context is cancelled (the tuner stops between steps and
// checkpoints). The returned channel closes when the job has fully stopped.
func (s *Server) Cancel(id string) (JobStatus, <-chan struct{}, error) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, nil, ErrUnknownJob
	}
	j.mu.Lock()
	switch j.status.State {
	case StateQueued:
		j.userCancel = true
		j.finishLocked(StateCancelled, "", time.Now().UnixNano())
		s.mCancelled.Inc()
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := j.status
	j.mu.Unlock()
	s.refreshGauges()
	return st, j.done, nil
}

// runJob executes one tuning job on a queue runner goroutine.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.status.State != StateQueued {
		// Cancelled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	if s.baseCtx.Err() != nil {
		// Drained before starting: stays queued on disk for the next process.
		select {
		case <-j.done:
		default:
			close(j.done)
		}
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.cancel = cancel
	j.status.State = StateRunning
	j.status.StartedNS = time.Now().UnixNano()
	writeJSONAtomic(filepath.Join(j.dir, stateFile), &j.status)
	spec := j.status.Spec
	started := j.status.StartedNS
	j.mu.Unlock()
	s.refreshGauges()

	res, runErr := s.tune(ctx, j, spec)

	j.mu.Lock()
	now := time.Now().UnixNano()
	switch {
	case runErr == nil:
		s.persistResult(j, res, false)
		j.finishLocked(StateDone, "", now)
		s.mDone.Inc()
	case errors.Is(runErr, context.Canceled) && j.userCancel:
		if res != nil {
			s.persistResult(j, res, true)
		}
		j.finishLocked(StateCancelled, "", now)
		s.mCancelled.Inc()
	case errors.Is(runErr, context.Canceled):
		// Server drain. With a partial result the job is interrupted and
		// resumes from its checkpoint; if it never left setup it just goes
		// back to queued.
		if res != nil {
			j.finishLocked(StateInterrupted, "", now)
			s.mInterrupted.Inc()
		} else {
			j.status.State = StateQueued
			j.status.StartedNS = 0
			j.cancel = nil
			writeJSONAtomic(filepath.Join(j.dir, stateFile), &j.status)
			select {
			case <-j.done:
			default:
				close(j.done)
			}
		}
	default:
		j.finishLocked(StateFailed, runErr.Error(), now)
		s.mFailed.Inc()
	}
	final := j.status.State
	j.mu.Unlock()
	if final.terminal() && started > 0 {
		s.hJobWall.Observe(float64(now-started) / 1e9)
	}
	s.refreshGauges()
}

// flushingSink forwards events to a JSONL sink and flushes after each one so
// the events endpoint can tail the file with bounded staleness. It preserves
// the sink's sequence base for restart continuity.
type flushingSink struct{ s *obs.JSONLSink }

func (f flushingSink) Emit(e *obs.Event) {
	f.s.Emit(e)
	f.s.Flush()
}

func (f flushingSink) BaseSeq() int64 { return f.s.BaseSeq() }

// tune builds the evaluator and runs the tuner for one job, wiring the
// journal, checkpoint hook and (if present) the prior checkpoint.
func (s *Server) tune(ctx context.Context, j *job, spec JobSpec) (*core.Result, error) {
	plat, err := bench.PlatformByName(spec.Platform)
	if err != nil {
		return nil, err
	}
	// The bench name was validated at submit.
	ev, err := bench.NewEvaluator(bench.ByName(spec.Bench), plat, spec.Seed)
	if err != nil {
		return nil, err
	}
	// Each job gets a private registry: the tuner reads back this-run deltas
	// from its counters, which a registry shared across concurrent jobs
	// would corrupt.
	met := obs.NewMetrics()
	ev.SetObs(met, nil)

	sink, err := obs.AppendJSONLFile(filepath.Join(j.dir, journalFile))
	if err != nil {
		return nil, err
	}
	defer sink.Close()

	opts := spec.options()
	// The phase sink feeds citroen_phase_seconds{phase=...} on the SERVICE
	// registry from the same Attribution state machine the /summary endpoint
	// uses, so Prometheus and the offline report can never disagree.
	opts.Sink = obs.Multi(flushingSink{sink}, analyze.NewPhaseSink(s.met))
	opts.Metrics = met
	ckptPath := filepath.Join(j.dir, checkpointFile)
	opts.Checkpoint = func(c *core.Checkpoint) error {
		if err := writeJSONAtomic(ckptPath, c); err != nil {
			return err
		}
		j.mu.Lock()
		j.status.Measurements = c.Measurements
		j.status.BestSpeedup = c.BestSpeedup
		writeJSONAtomic(filepath.Join(j.dir, stateFile), &j.status)
		j.mu.Unlock()
		return nil
	}
	if _, err := os.Stat(ckptPath); err == nil {
		ck := &core.Checkpoint{}
		if err := readJSON(ckptPath, ck); err != nil {
			return nil, fmt.Errorf("serve: corrupt checkpoint for job %s: %w", j.status.ID, err)
		}
		opts.ResumeFrom = ck
	}
	task := ev.Task()
	if s.cfg.Fleet != nil {
		// Fleet mode: the binding is the task — candidate batches dispatch to
		// remote runners and accepted batch deltas fold into the cache
		// statistics the tuner journals, keeping the canonical journal
		// byte-identical to a single-process run on a healthy fleet.
		task = s.cfg.Fleet.Bind(fleet.JobConfig{
			Bench:    spec.Bench,
			Platform: spec.Platform,
			Seed:     spec.Seed,
			Feature:  spec.Feature,
		}, ev, spec.Workers).Task()
	}
	return core.NewTuner(task, opts, spec.Seed).RunContext(ctx)
}

// persistResult writes result.json and mirrors the summary into the status.
func (s *Server) persistResult(j *job, res *core.Result, interrupted bool) {
	out := JobResult{
		BestSpeedup:  res.BestSpeedup,
		BestTime:     res.BestTime,
		BestSeqs:     res.BestSeqs,
		HotModules:   res.HotModules,
		Measurements: res.Breakdown.Measures,
		Interrupted:  interrupted,
	}
	writeJSONAtomic(filepath.Join(j.dir, resultFile), &out)
	j.status.BestSpeedup = res.BestSpeedup
	if n := len(res.Trace); n > j.status.Measurements {
		j.status.Measurements = n
	}
}

// Drain gracefully shuts the server down: new submissions are rejected,
// every running job is cancelled (each takes a final checkpoint and is
// marked interrupted for resume on restart), and queued jobs stay queued on
// disk. Returns when all runners have stopped or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.baseCancel()
	stopped := make(chan struct{})
	go func() {
		s.queue.Close()
		close(stopped)
	}()
	select {
	case <-stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Backlog reports the number of queued-but-not-running jobs.
func (s *Server) Backlog() int { return s.queue.Backlog() }

// JournalPath returns the job's event journal file.
func (s *Server) JournalPath(id string) (string, error) {
	j := s.lookup(id)
	if j == nil {
		return "", ErrUnknownJob
	}
	return filepath.Join(j.dir, journalFile), nil
}

// ResultPath returns the job's result.json path.
func (s *Server) ResultPath(id string) (string, error) {
	j := s.lookup(id)
	if j == nil {
		return "", ErrUnknownJob
	}
	return filepath.Join(j.dir, resultFile), nil
}
