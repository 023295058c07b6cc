// Package evalpool provides a fixed-size worker pool for fanning independent
// candidate evaluations (compile + feature extraction) across CPUs. Results
// are indexed by submission order, so the outcome of a fan-out is identical
// for any worker count: parallelism changes only the wall-clock, never the
// data.
//
// Two execution shapes are provided: Map/MapCtx for one-shot fan-outs
// (the tuner's per-iteration candidate batch), and Queue for long-lived
// bounded work queues with cancellable submission (the tuning-job server).
package evalpool

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/numeric"
	"repro/internal/obs"
)

// Pool is a reusable fan-out executor with a fixed worker count. The zero
// value is not usable; construct with New.
type Pool struct {
	workers int

	// Optional instrumentation (see Instrument); nil when uninstrumented.
	batches *obs.Counter
	jobs    *obs.Counter
	active  *obs.Gauge // workers currently inside fn
	queued  *obs.Gauge // submitted jobs not yet claimed
}

// New returns a pool with the given worker count. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 is the documented serial mode, where
// every Map call runs its jobs inline in index order on the caller's
// goroutine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Instrument registers queue-depth and worker-utilisation metrics on m:
// evalpool_batches_total and evalpool_jobs_total counters, and
// evalpool_active_workers / evalpool_queue_depth gauges. Call before the
// first Map; a nil registry yields live but unregistered instruments, so
// instrumentation is always safe to enable.
func (p *Pool) Instrument(m *obs.Metrics) {
	p.batches = m.Counter("evalpool_batches_total")
	p.jobs = m.Counter("evalpool_jobs_total")
	p.active = m.Gauge("evalpool_active_workers")
	p.queued = m.Gauge("evalpool_queue_depth")
}

// Map runs fn(i) for every i in [0, n) and returns when all calls have
// completed. fn must write its result into a caller-owned slot for index i
// (e.g. results[i] = ...): that convention is what makes the fan-out
// deterministic regardless of scheduling. fn must not touch shared mutable
// state unless it synchronises on its own.
//
// The fan-out itself is numeric.ParallelFor: with one worker (or n == 1) the
// calls run inline in index order, indices are claimed dynamically, and the
// first panic of any job is re-raised on the calling goroutine once every
// worker has returned.
func (p *Pool) Map(n int, fn func(i int)) {
	p.MapCtx(context.Background(), n, fn)
}

// MapCtx is Map with cancellation: once ctx is done, no further jobs start
// (jobs already started run to completion) and the context's error is
// returned. Callers that fan out into caller-owned result slots must treat
// the slots of jobs that never started as absent on a non-nil return. A nil
// ctx behaves like context.Background().
func (p *Pool) MapCtx(ctx context.Context, n int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	if p.batches != nil {
		p.batches.Inc()
		p.jobs.Add(int64(n))
		p.queued.Set(float64(n))
		defer p.queued.Set(0)
	}
	numeric.ParallelFor(p.workers, n, func(i int) {
		if ctx.Err() != nil {
			return
		}
		if p.queued != nil {
			p.queued.Set(float64(n - 1 - i))
			p.active.Add(1)
			defer p.active.Add(-1)
		}
		fn(i)
	})
	return ctx.Err()
}

// MapGroupsCtx runs fn once for every index contained in groups: the indices
// of one group run serially in order on a single worker, while distinct
// groups fan out across the pool like MapCtx jobs. Use it when consecutive
// jobs benefit from each other's side effects — the tuner groups candidate
// compiles by shared sequence prefix so the first build of a group publishes
// the prefix snapshots the rest resume from. The group shape changes
// scheduling only: fn still writes per-index results into caller-owned slots,
// so the outcome is identical to MapCtx over the same index set in any
// grouping and for any worker count. Cancellation stops both group claiming
// and the serial walk inside a claimed group.
func (p *Pool) MapGroupsCtx(ctx context.Context, groups [][]int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.jobs != nil {
		// MapCtx counts one job per group; account for the rest.
		extra := -len(groups)
		for _, g := range groups {
			extra += len(g)
		}
		if extra > 0 {
			p.jobs.Add(int64(extra))
		}
	}
	return p.MapCtx(ctx, len(groups), func(g int) {
		for _, i := range groups[g] {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
	})
}

// Queue errors.
var (
	// ErrQueueClosed is returned by Submit/TrySubmit after Close.
	ErrQueueClosed = errors.New("evalpool: queue closed")
	// ErrQueueFull is returned by TrySubmit when the buffer is at capacity.
	ErrQueueFull = errors.New("evalpool: queue full")
)

// Queue is a long-lived bounded FIFO work queue with a fixed worker count.
// Unlike Pool.Map (one-shot fan-out with a barrier), jobs are submitted
// individually over the queue's lifetime and execute in FIFO order across
// the workers. Submission is cancellable: a Submit blocked on a full buffer
// unblocks as soon as its context is cancelled or the queue closes, so a
// producer can never deadlock against stalled workers.
type Queue struct {
	jobs chan func()
	quit chan struct{}

	mu     sync.Mutex
	closed bool
	subWG  sync.WaitGroup // in-flight Submit/TrySubmit calls
	wg     sync.WaitGroup // worker goroutines
}

// NewQueue starts a queue with the given worker count and buffer capacity.
// workers <= 0 selects runtime.GOMAXPROCS(0); capacity <= 0 means an
// unbuffered queue (Submit blocks until a worker is free).
func NewQueue(workers, capacity int) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity < 0 {
		capacity = 0
	}
	q := &Queue{
		jobs: make(chan func(), capacity),
		quit: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for job := range q.jobs {
				job()
			}
		}()
	}
	return q
}

// Submit enqueues job, blocking while the buffer is full. It returns nil on
// acceptance, the context's error if ctx is cancelled while blocked, or
// ErrQueueClosed if the queue closes first (or was already closed). An
// accepted job is guaranteed to run before Close returns.
func (q *Queue) Submit(ctx context.Context, job func()) error {
	if job == nil {
		return errors.New("evalpool: nil job")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrQueueClosed
	}
	q.subWG.Add(1)
	q.mu.Unlock()
	defer q.subWG.Done()
	select {
	case q.jobs <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-q.quit:
		return ErrQueueClosed
	}
}

// TrySubmit enqueues job without blocking, returning ErrQueueFull when the
// buffer is at capacity (the bounded-queue admission-control path).
func (q *Queue) TrySubmit(job func()) error {
	if job == nil {
		return errors.New("evalpool: nil job")
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrQueueClosed
	}
	q.subWG.Add(1)
	q.mu.Unlock()
	defer q.subWG.Done()
	select {
	case q.jobs <- job:
		return nil
	case <-q.quit:
		return ErrQueueClosed
	default:
		return ErrQueueFull
	}
}

// Backlog reports the number of accepted jobs not yet claimed by a worker.
func (q *Queue) Backlog() int { return len(q.jobs) }

// Close stops accepting new jobs, unblocks every pending Submit (they return
// ErrQueueClosed), runs all previously accepted jobs to completion, and
// waits for the workers to exit. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.quit)
	q.mu.Unlock()
	// After quit is closed, no Submit can enter the send select and win a
	// slot once it has observed quit; wait for stragglers mid-select, then
	// closing the channel lets workers drain the buffer and exit.
	q.subWG.Wait()
	close(q.jobs)
	q.wg.Wait()
}
