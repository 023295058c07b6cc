// Package serve turns the CITROEN tuner into a long-running service: a
// bounded FIFO queue of tuning jobs, per-job lifecycle tracking
// (queued → running → done/failed/cancelled), and a JSONL event journal per
// job, flushed after every event. The journal is the job's one record of its
// run: a restarted server resumes an interrupted job by replaying the
// measurements its journal holds instead of restarting the search.
// cmd/citroend exposes the HTTP API; cmd/citroenctl is the client.
//
// On-disk layout, one directory per job under Config.Dir:
//
//	<dir>/<id>/state.json     job spec + lifecycle state (atomic writes)
//	<dir>/<id>/journal.jsonl  structured event journal, appended across
//	                          restarts with continuous sequence numbers
//	<dir>/<id>/result.json    final summary, written once on completion
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// Config sizes the service.
type Config struct {
	// Dir is the root of the per-job state directories.
	Dir string
	// QueueCap bounds the backlog of queued (accepted, not yet running) jobs;
	// a full queue rejects submissions (HTTP 503). A cancelled queued job
	// frees its slot at once. Default 16.
	QueueCap int
	// Runners is the number of jobs tuned concurrently. Default 1: tuning
	// runs are themselves internally parallel (JobSpec.Workers).
	Runners int
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
	cfg Config

	// baseCtx parents every job context; baseCancel is the drain switch.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex // taken before a job's mu, never while holding one
	jobs     map[string]*job
	order    []string       // submission order, for listing
	queue    []*job         // queued jobs, FIFO; startLocked runs the head
	running  int            // jobs started and not yet returned
	runs     sync.WaitGroup // one per started job; Drain waits on it
	nextID   int
	draining bool

	// met is the service-level registry; every job's run series (phase
	// seconds, measurements, ...) and the service gauges accumulate here.
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

// ErrQueueFull rejects submissions while Config.QueueCap jobs are queued.
var ErrQueueFull = errors.New("serve: queue full")

// ErrUnknownJob is returned for ids the server has never seen.
var ErrUnknownJob = errors.New("serve: unknown job")

// New builds the server, recovers persisted jobs from cfg.Dir, and re-queues
// every job that was queued, running or interrupted when the previous
// process died — running jobs resume from their journals.
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
	s.mu.Lock()
	s.startLocked()
	s.mu.Unlock()
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
	backlog := len(s.queue)
	s.mu.Unlock()
	counts := map[State]int{}
	for _, j := range jobs {
		counts[j.snapshot().State]++
	}
	for st, g := range s.gState {
		g.Set(float64(counts[st]))
	}
	s.gRunning.Set(float64(counts[StateRunning]))
	s.gQueueDepth.Set(float64(backlog))
}

// recover loads persisted jobs and re-queues the unfinished ones in id
// (submission) order, preserving FIFO across restarts. QueueCap bounds new
// submissions only: a recovered backlog is queued in full.
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
				// warm-starts from the journal.
				j.status.Resumes++
				s.mResumed.Inc()
			}
			j.status.State = StateQueued
			j.status.Error = ""
			writeJSONAtomic(filepath.Join(dir, stateFile), &j.status)
			s.queue = append(s.queue, j)
		default:
			close(j.done) // terminal: nothing will ever touch it again
		}
		s.jobs[st.ID] = j
		s.order = append(s.order, st.ID)
	}
	return nil
}

// admitLocked reports why a new job cannot be queued now, if it cannot.
// Caller must hold s.mu.
func (s *Server) admitLocked() error {
	if s.draining {
		return ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueCap {
		return ErrQueueFull
	}
	return nil
}

// startLocked starts queued jobs, head first, while fewer than Runners run.
// A job leaves the queue and becomes running in one step, so the queue holds
// exactly the jobs in state queued. Caller must hold s.mu.
func (s *Server) startLocked() {
	for !s.draining && s.running < s.cfg.Runners && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = slices.Delete(s.queue, 0, 1)
		ctx, cancel := context.WithCancel(s.baseCtx)
		j.mu.Lock()
		j.cancel = cancel
		j.status.State = StateRunning
		j.status.StartedNS = time.Now().UnixNano()
		writeJSONAtomic(filepath.Join(j.dir, stateFile), &j.status)
		j.mu.Unlock()
		s.running++
		s.runs.Add(1)
		go s.runJob(ctx, cancel, j)
	}
}

// Submit accepts a new tuning job, persists it and enqueues it. Returns the
// queued status, ErrDraining during shutdown, or ErrQueueFull when
// Config.QueueCap jobs are queued.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.normalize(); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if err := s.admitLocked(); err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
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
	s.mu.Lock()
	err := s.admitLocked()
	if err == nil {
		s.queue = append(s.queue, j)
		s.startLocked()
	}
	s.mu.Unlock()
	if err != nil {
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

// Cancel stops a job: a queued job leaves the queue and is marked cancelled
// immediately, a running job's context is cancelled (the tuner stops between
// steps). The returned channel closes when the job has fully
// stopped.
func (s *Server) Cancel(id string) (JobStatus, <-chan struct{}, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobStatus{}, nil, ErrUnknownJob
	}
	j.mu.Lock()
	switch j.status.State {
	case StateQueued:
		s.queue = slices.DeleteFunc(s.queue, func(q *job) bool { return q == j })
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
	s.mu.Unlock()
	s.refreshGauges()
	return st, j.done, nil
}

// runJob executes one tuning job on the goroutine startLocked gave it, then
// hands its runner slot to the head of the queue. A job the drain stops
// before it leaves setup is queued again, so Backlog keeps counting every
// queued job; it stays queued on disk for the next process.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job) {
	defer func() {
		cancel()
		s.mu.Lock()
		s.running--
		if j.snapshot().State == StateQueued {
			s.queue = append(s.queue, j)
		}
		s.startLocked()
		s.mu.Unlock()
		s.refreshGauges()
		s.runs.Done()
	}()
	j.mu.Lock()
	spec := j.status.Spec
	started := j.status.StartedNS
	j.mu.Unlock()

	var res *core.Result
	runErr := ctx.Err() // drained or cancelled before the evaluator is built
	if runErr == nil {
		res, runErr = s.tune(ctx, j, spec)
	}

	j.mu.Lock()
	now := time.Now().UnixNano()
	switch {
	case runErr == nil:
		// Done promises a readable result.json; a job whose result could not
		// be written fails with the write error instead.
		if err := s.persistResult(j, res, false); err != nil {
			j.finishLocked(StateFailed, err.Error(), now)
			s.mFailed.Inc()
		} else {
			j.finishLocked(StateDone, "", now)
			s.mDone.Inc()
		}
	case errors.Is(runErr, context.Canceled) && j.userCancel:
		// A cancelled job promises no result: the partial one is best effort.
		if res != nil {
			_ = s.persistResult(j, res, true)
		}
		j.finishLocked(StateCancelled, "", now)
		s.mCancelled.Inc()
	case errors.Is(runErr, context.Canceled):
		// Server drain. With a partial result the job is interrupted and
		// resumes from its journal; if it never left setup it just goes back
		// to queued.
		if res != nil {
			j.finishLocked(StateInterrupted, "", now)
			s.mInterrupted.Inc()
		} else {
			j.status.State = StateQueued
			j.status.StartedNS = 0
			j.cancel = nil
			writeJSONAtomic(filepath.Join(j.dir, stateFile), &j.status)
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

// progressSink follows the job's progress into its status: the number and
// incumbent of each budget-consuming measure event, and what a resume
// restored. state.json records them at the job's next state transition.
type progressSink struct{ j *job }

func (p progressSink) Emit(e *obs.Event) {
	var n int
	switch e.Type {
	case "measure":
		if !obs.FieldBool(e.Fields, "ok") || obs.FieldBool(e.Fields, "reused") {
			return
		}
		n = int(obs.FieldFloat(e.Fields, "measurement"))
	case "resume":
		n = int(obs.FieldFloat(e.Fields, "replayed"))
	default:
		return
	}
	p.j.mu.Lock()
	p.j.status.Measurements = n
	p.j.status.BestSpeedup = obs.FieldFloat(e.Fields, "best")
	p.j.mu.Unlock()
}

// tune builds the evaluator and runs the tuner for one job, journalling into
// the job's journal and resuming from what an interrupted run left in it.
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

	// Opening the journal for append cuts a torn last line (a process killed
	// mid-write); what is left is the interrupted run to resume from.
	path := filepath.Join(j.dir, journalFile)
	sink, err := obs.AppendJSONLFile(path)
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	opts := spec.options()
	if opts.ResumeFrom, err = obs.ReadJournalFile(path); err != nil {
		return nil, fmt.Errorf("serve: journal of job %s: %w", j.status.ID, err)
	}
	// The metrics sink feeds the run's series on the SERVICE registry (summed
	// over jobs) from the same Analyzer the /summary endpoint reports with,
	// so Prometheus and the offline report can never disagree.
	opts.Sink = obs.Multi(flushingSink{sink}, progressSink{j}, analyze.NewMetricsSink(s.met))
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

// persistResult writes result.json and, once it is written, mirrors the
// summary into the status.
func (s *Server) persistResult(j *job, res *core.Result, interrupted bool) error {
	out := JobResult{
		BestSpeedup:  res.BestSpeedup,
		BestTime:     res.BestTime,
		BestSeqs:     res.BestSeqs,
		HotModules:   res.HotModules,
		Measurements: res.Breakdown.Measures,
		Interrupted:  interrupted,
	}
	if err := writeJSONAtomic(filepath.Join(j.dir, resultFile), &out); err != nil {
		return err
	}
	j.status.BestSpeedup = res.BestSpeedup
	j.status.Measurements = res.Breakdown.Measures
	return nil
}

// Drain gracefully shuts the server down: new submissions are rejected, no
// queued job starts, and every running job is cancelled (each is marked
// interrupted, to resume from its journal on restart). Once the
// running jobs have returned, the done channel of every job left queued is
// closed; those jobs stay queued on disk. Returns when that has happened or
// ctx expires.
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
		s.runs.Wait()
		s.mu.Lock()
		left := slices.Clone(s.queue)
		s.mu.Unlock()
		for _, j := range left {
			j.mu.Lock()
			j.releaseLocked()
			j.mu.Unlock()
		}
		close(stopped)
	}()
	select {
	case <-stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Backlog reports the number of queued (accepted, not yet running) jobs.
func (s *Server) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

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
