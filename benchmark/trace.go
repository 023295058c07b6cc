package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer: who caused it (Parent, 0 for the
// root) and which search seed it belongs to (-1 outside any).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Seed    int    `json:"seed"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: begin and end do nothing and read no clock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, seed int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Seed: seed, StartNS: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// inflight accumulates the wall during which at least one call was running,
// so overlapping compile workers are not counted twice.
type inflight struct {
	mu      sync.Mutex
	n       int
	since   time.Time
	elapsed time.Duration
}

func (f *inflight) enter() {
	f.mu.Lock()
	if f.n == 0 {
		f.since = time.Now()
	}
	f.n++
	f.mu.Unlock()
}

func (f *inflight) leave() {
	f.mu.Lock()
	f.n--
	if f.n == 0 {
		f.elapsed += time.Since(f.since)
	}
	f.mu.Unlock()
}

func (f *inflight) total() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.elapsed
}
