// Package obs is the zero-dependency observability layer for the tuning
// loop: a structured event journal (typed JSONL events with monotonic
// sequence numbers and span-style parent IDs), a metrics registry (counters,
// gauges, streaming fixed-bucket histograms renderable in Prometheus text
// format), and the replay/summary helpers that make saved journals useful
// offline.
//
// Design constraints, in order:
//
//   - The disabled path must be free: every Recorder method no-ops on a nil
//     receiver before touching any argument, so a tuner built without a sink
//     pays one nil check per event site and allocates nothing.
//   - Journals must be deterministic modulo timing: all journal emission
//     happens on the tuner goroutine in submit order, sequence numbers are
//     plain increments, and every wall-clock-derived field is named with an
//     "_ns" suffix (execution-environment fields use an "env_" prefix) so
//     Canonicalize can strip exactly the nondeterministic parts. Two runs
//     that search identically produce canonically identical journals
//     regardless of worker count.
//   - The metrics hot path uses only atomics — no time, no rand, no maps —
//     so enabling the registry cannot perturb a deterministic trace.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Event is one journal record. Events that open a span (run-start,
// iteration) carry a Span ID; their children reference it via Parent.
// TimeNS is monotonic nanoseconds since the recorder was created and, like
// every field key ending in "_ns", is a timing field excluded from
// journal-equality comparisons.
type Event struct {
	Seq    int64          `json:"seq"`
	TimeNS int64          `json:"t_ns"`
	Type   string         `json:"type"`
	Span   int64          `json:"span,omitempty"`
	Parent int64          `json:"parent,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Sink consumes journal events. Emit must not retain e past the call.
type Sink interface {
	Emit(e *Event)
}

// Multi fans events out to several sinks. Nil sinks are dropped; with no
// live sinks it returns nil (the disabled journal).
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Emit(e *Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// BaseSeq implements SeqBase: the largest base among the fan-out's sinks, so
// a renderer multiplexed with an appended journal file never rewinds the
// sequence numbers.
func (m multiSink) BaseSeq() int64 {
	var base int64
	for _, s := range m {
		if b, ok := s.(SeqBase); ok && b.BaseSeq() > base {
			base = b.BaseSeq()
		}
	}
	return base
}

// SeqBase is implemented by sinks that continue an existing journal: the
// recorder starts numbering events at BaseSeq()+1, keeping sequence numbers
// monotonic across process restarts (checkpoint/resume of a tuning job).
type SeqBase interface {
	BaseSeq() int64
}

// JSONLSink writes one JSON object per line. Safe for concurrent use; the
// first write error is sticky and reported by Close.
type JSONLSink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	base   int64
	err    error
}

// NewJSONLSink wraps w. The caller owns w; Close only flushes.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// CreateJSONLFile creates (truncates) path and returns a sink that owns the
// file: Close flushes and closes it.
func CreateJSONLFile(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewJSONLSink(f)
	s.closer = f
	return s, nil
}

// AppendJSONLFile opens (creating if absent) path for appending and returns
// a sink that owns the file and continues its sequence numbering: BaseSeq
// reports the last valid event's seq, so a Recorder built over this sink
// numbers new events monotonically after the existing journal. A truncated
// trailing line — the signature of a process killed mid-write — is removed
// before appending so the journal stays valid JSONL.
func AppendJSONLFile(path string) (*JSONLSink, error) {
	base, validLen, err := scanJournalTail(path)
	if err != nil {
		return nil, err
	}
	if validLen >= 0 {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := NewJSONLSink(f)
	s.closer = f
	s.base = base
	return s, nil
}

// scanJournalTail reads an existing journal, returning the last valid seq
// and, when the file ends with a torn (unparseable or unterminated) final
// line, the byte length the file should be truncated to (-1 = no repair
// needed). A missing file yields (0, -1, nil).
func scanJournalTail(path string) (lastSeq, truncateTo int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, -1, nil
	}
	if err != nil {
		return 0, -1, err
	}
	pos := 0
	for pos < len(data) {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			break // unterminated tail: killed mid-write
		}
		var e Event
		if jsonErr := json.Unmarshal(data[pos:pos+nl], &e); jsonErr != nil || e.Seq == 0 {
			break // torn or foreign line: everything from here is dropped
		}
		lastSeq = e.Seq
		pos += nl + 1
	}
	if pos < len(data) {
		return lastSeq, int64(pos), nil
	}
	return lastSeq, -1, nil
}

// BaseSeq implements SeqBase (non-zero only for AppendJSONLFile sinks).
func (s *JSONLSink) BaseSeq() int64 { return s.base }

// Flush forces buffered events to the underlying writer without closing the
// sink, so live consumers (e.g. the tuning service's event stream) can tail
// the file while the run is still in flight.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); s.err == nil && err != nil {
		s.err = err
	}
	return s.err
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Close flushes (and closes the file for CreateJSONLFile sinks), returning
// the first error seen over the sink's lifetime.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	if s.closer != nil {
		if err := s.closer.Close(); s.err == nil {
			s.err = err
		}
		s.closer = nil
	}
	return s.err
}

// MemorySink collects events in memory (tests, trace diffing).
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (s *MemorySink) Emit(e *Event) {
	s.mu.Lock()
	s.events = append(s.events, *e)
	s.mu.Unlock()
}

// Events returns a copy of the collected events.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Recorder assigns sequence numbers, timestamps and span IDs and forwards
// typed events to a Sink. A nil *Recorder is the disabled journal: every
// method returns immediately, allocation-free, so call sites need no guard.
//
// All methods are safe for concurrent use, but journal determinism (stable
// sequence numbers across worker counts) additionally requires that callers
// emit from a single goroutine, which the tuner does: compile results are
// journaled in submit order after each parallel fan-out completes.
type Recorder struct {
	mu    sync.Mutex
	sink  Sink
	seq   int64
	spans int64
	start time.Time
}

// NewRecorder returns a recorder over sink, or nil (disabled) for a nil
// sink. A sink implementing SeqBase (e.g. from AppendJSONLFile) makes the
// recorder continue the existing journal's numbering instead of restarting
// at 1, so resumed runs keep sequence numbers strictly monotonic.
func NewRecorder(sink Sink) *Recorder {
	r := &Recorder{sink: sink, start: time.Now()}
	if sink == nil {
		return nil
	}
	if b, ok := sink.(SeqBase); ok {
		r.seq = b.BaseSeq()
		r.spans = r.seq // span IDs share the namespace headroom
	}
	return r
}

// Enabled reports whether events are being recorded. Callers building
// expensive payloads (maps for RunStart/RunEnd) should guard on it.
func (r *Recorder) Enabled() bool { return r != nil }

// emit assigns seq/time and forwards. span == 0 means "allocate a fresh
// span ID for this event"; pass -1 for span-less child events.
func (r *Recorder) emit(typ string, span, parent int64, fields map[string]any) int64 {
	r.mu.Lock()
	r.seq++
	if span == 0 {
		r.spans++
		span = r.spans
	} else if span < 0 {
		span = 0
	}
	e := Event{
		Seq:    r.seq,
		TimeNS: time.Since(r.start).Nanoseconds(),
		Type:   typ,
		Span:   span,
		Parent: parent,
		Fields: fields,
	}
	r.sink.Emit(&e)
	r.mu.Unlock()
	return span
}

// RunStart opens the root span with the run's full configuration. Guard the
// config-map construction with Enabled().
func (r *Recorder) RunStart(config map[string]any) int64 {
	if r == nil {
		return 0
	}
	return r.emit("run-start", 0, 0, config)
}

// Iteration opens one model-guided-loop iteration span under the run span.
func (r *Recorder) Iteration(runSpan int64, iter, budgetUsed int) int64 {
	if r == nil {
		return 0
	}
	return r.emit("iteration", 0, runSpan, map[string]any{
		"iter": iter, "budget_used": budgetUsed,
	})
}

// CandidateGenerated records one candidate sequence asked from a generator.
func (r *Recorder) CandidateGenerated(parent int64, module, generator string, seqLen int, seqHash uint64) {
	if r == nil {
		return
	}
	r.emit("candidate-generated", -1, parent, map[string]any{
		"module": module, "generator": generator,
		"seq_len": seqLen, "seq_hash": seqHash,
	})
}

// Compile records one candidate compilation (stats extraction, no
// execution). wall is a timing field.
func (r *Recorder) Compile(parent int64, module string, seqLen int, seqHash uint64, ok bool, wall time.Duration) {
	if r == nil {
		return
	}
	r.emit("compile", -1, parent, map[string]any{
		"module": module, "seq_len": seqLen, "seq_hash": seqHash,
		"ok": ok, "wall_ns": wall.Nanoseconds(),
	})
}

// GPFit records one cost-model update: a full (re)fit, or an O(n²)
// incremental append when appended is true.
func (r *Recorder) GPFit(parent int64, points, dim int, appended bool, wall time.Duration) {
	if r == nil {
		return
	}
	r.emit("gp-fit", -1, parent, map[string]any{
		"points": points, "dim": dim, "appended": appended, "wall_ns": wall.Nanoseconds(),
	})
}

// AcqMax records the acquisition argmax over one iteration's candidates.
func (r *Recorder) AcqMax(parent int64, candidates int, module string, af float64, dup bool, novelDims int, wall time.Duration) {
	if r == nil {
		return
	}
	r.emit("acq-max", -1, parent, map[string]any{
		"candidates": candidates, "module": module, "af": af,
		"dup": dup, "novel_dims": novelDims, "wall_ns": wall.Nanoseconds(),
	})
}

// Measure records one runtime measurement. reused marks duplicate-statistics
// candidates whose profiled value was reused without consuming budget;
// measurement is the 1-based index in the trace (0 when no budget was
// consumed). timeCycles/speedup/best come from the deterministic simulated
// machine and are NOT timing fields; wall is.
func (r *Recorder) Measure(parent int64, module string, measurement int, timeCycles, speedup, best float64, ok, reused bool, wall time.Duration) {
	if r == nil {
		return
	}
	r.emit("measure", -1, parent, map[string]any{
		"module": module, "measurement": measurement,
		"time_cycles": timeCycles, "speedup": speedup, "best": best,
		"ok": ok, "reused": reused, "wall_ns": wall.Nanoseconds(),
	})
}

// Stats records the run's cumulative counter set at a serial synchronisation
// point (after a measurement): canonical rows as plain fields, Env rows under
// the "env_" prefix Canonicalize strips (see CounterSet.PutFields).
func (r *Recorder) Stats(parent int64, set CounterSet) {
	if r == nil {
		return
	}
	f := make(map[string]any, len(set))
	set.PutFields(f)
	r.emit("stats", -1, parent, f)
}

// PlannerBuild records one statistics-connectivity planner construction: the
// module probed, the interaction graph's active node and positive-weight edge
// counts, how many compile-only prefix probes fed it, and the length of the
// greedy plan it produced. wall covers the whole probe+build+plan step and is
// stripped by canonical comparison like every _ns field.
func (r *Recorder) PlannerBuild(parent int64, module string, nodes, edges, probes, planLen int, wall time.Duration) {
	if r == nil {
		return
	}
	r.emit("planner-build", -1, parent, map[string]any{
		"module": module, "nodes": nodes, "edges": edges,
		"probe_compiles": probes, "plan_len": planLen,
		"wall_ns": wall.Nanoseconds(),
	})
}

// NewIncumbent records a program-level best-speedup improvement. The final
// new-incumbent event of a run matches Result.BestSpeedup.
func (r *Recorder) NewIncumbent(parent int64, module string, measurement int, speedup float64) {
	if r == nil {
		return
	}
	r.emit("new-incumbent", -1, parent, map[string]any{
		"module": module, "measurement": measurement, "speedup": speedup,
	})
}

// Checkpoint records a durable snapshot of tuner state (measurements
// consumed and incumbent speedup at the time the checkpoint hook ran).
func (r *Recorder) Checkpoint(parent int64, measurements int, best float64) {
	if r == nil {
		return
	}
	r.emit("checkpoint", -1, parent, map[string]any{
		"measurements": measurements, "best": best,
	})
}

// Resume records a warm-start from a checkpoint: replayed is the number of
// observations re-injected into the model without consuming budget, best the
// incumbent speedup restored by the replay.
func (r *Recorder) Resume(parent int64, replayed int, best float64) {
	if r == nil {
		return
	}
	r.emit("resume", -1, parent, map[string]any{
		"replayed": replayed, "best": best,
	})
}

// FleetIncident records one distributed-dispatch anomaly: a batch retried
// after a runner failure ("retry"), a straggler batch duplicated onto a
// second runner ("steal"), a losing duplicate result thrown away
// ("duplicate-discarded"), a runner quarantined after repeated failures
// ("quarantine"), or a batch executed on the coordinator because no runner
// was available ("local-fallback"). attempt is the dispatch attempt the
// incident belongs to (1-based). Healthy fixed fleets emit none of these,
// which is what keeps their canonical journals byte-identical to a
// single-process run.
func (r *Recorder) FleetIncident(parent int64, kind, runner, module string, attempt int) {
	if r == nil {
		return
	}
	r.emit("fleet-incident", -1, parent, map[string]any{
		"kind": kind, "runner": runner, "module": module, "attempt": attempt,
	})
}

// RunEnd closes the run with its result summary. Guard the summary-map
// construction with Enabled().
func (r *Recorder) RunEnd(runSpan int64, summary map[string]any) {
	if r == nil {
		return
	}
	r.emit("run-end", -1, runSpan, summary)
}

// Canonicalize returns a copy of events with every nondeterministic field
// removed: sink-assigned timestamps, any field key with the "_ns" suffix
// (wall-clock durations, recursively) and any key with the "env_" prefix
// (execution environment, e.g. worker counts). Two runs with identical
// search behaviour — e.g. -workers=1 vs -workers=8 — canonicalize to deeply
// equal journals.
func Canonicalize(events []Event) []Event {
	out := make([]Event, len(events))
	for i, e := range events {
		e.TimeNS = 0
		e.Fields = scrubMap(e.Fields)
		out[i] = e
	}
	return out
}

func scrubMap(f map[string]any) map[string]any {
	if f == nil {
		return nil
	}
	out := make(map[string]any, len(f))
	for k, v := range f {
		if strings.HasSuffix(k, "_ns") || strings.HasPrefix(k, "env_") {
			continue
		}
		out[k] = scrubValue(v)
	}
	return out
}

func scrubValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		return scrubMap(t)
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = scrubValue(e)
		}
		return out
	default:
		return v
	}
}
