package analyze

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// TraceEvent is one record of the Chrome trace-event format (the JSON
// flavour ui.perfetto.dev and chrome://tracing open directly). Timestamps
// and durations are microseconds.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// Trace is a complete trace-event JSON document.
type Trace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// tuner goroutine track; parallel compile fan-outs pack into lanes above it.
const tunerTID = 0

// ChromeTrace converts a journal into a Chrome trace-event document in one
// pass over the events. Each run becomes one process (pid = run index + 1)
// with the tuner's serial timeline on thread 0 — the run slice, iteration
// slices (each up to the next iteration or the run's end), and the serial
// measure/gp-fit/acq-max slices — while compile events, which overlap under
// parallel workers, are packed into "compile lane" threads so the fan-out
// width is visible. Incumbent improvements and resumes render as instant
// events. Every event sits where the report's timeline placed
// it, on one time axis from the journal's first event, so the runs of a
// resumed job follow each other.
func ChromeTrace(events []obs.Event) *Trace {
	tr := &Trace{DisplayTimeUnit: "ms"}
	var tl timeline
	var run *runTrack
	for i := range events {
		e := &events[i]
		p := tl.feed(e)
		if run == nil || e.Type == "run-start" {
			pid := 1
			if run != nil {
				run.close(tr)
				pid = run.pid + 1
			}
			run = tr.openRun(pid, e, tl.firstNS, p.atNS)
		}
		run.endNS = p.atNS
		pid, base := run.pid, run.base
		switch e.Type {
		case "iteration":
			run.closeIteration(tr)
			run.iter, run.iterStartNS = len(tr.TraceEvents), p.atNS
			name := "iteration " + itoa(int(obs.FieldFloat(e.Fields, "iter")))
			tr.slice(pid, tunerTID, name, "span", base, p.atNS, p.atNS, scrubArgs(e.Fields))
		case "compile":
			run.compiles = append(run.compiles, compileSlice{p.span, "compile " + fieldString(e.Fields, "module"), scrubArgs(e.Fields)})
		case "measure":
			tr.slice(pid, tunerTID, "measure "+fieldString(e.Fields, "module"), string(PhaseMeasure), base, p.span.startNS, p.span.endNS, scrubArgs(e.Fields))
		case "gp-fit":
			name := "gp refit"
			if obs.FieldBool(e.Fields, "appended") {
				name = "gp append"
			}
			tr.slice(pid, tunerTID, name, string(PhaseGPFit), base, p.span.startNS, p.span.endNS, scrubArgs(e.Fields))
		case "acq-max":
			tr.slice(pid, tunerTID, "acquisition", string(PhaseAcq), base, p.span.startNS, p.span.endNS, scrubArgs(e.Fields))
		case "new-incumbent", "resume":
			tr.instant(pid, tunerTID, strings.ReplaceAll(e.Type, "-", " "), base, p.atNS, scrubArgs(e.Fields))
		}
	}
	if run != nil {
		run.close(tr)
	}
	return tr
}

// WriteChromeTrace serialises the trace for a journal onto w.
func WriteChromeTrace(w io.Writer, events []obs.Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ChromeTrace(events))
}

// runTrack is the run ChromeTrace is in: its process, its open run and
// iteration slices (indices into TraceEvents; iter is -1 before the first
// iteration), and its compiles, packed into lanes when the run closes.
type runTrack struct {
	pid, slice, iter                  int
	base, startNS, iterStartNS, endNS int64
	compiles                          []compileSlice
}

type compileSlice struct {
	span interval
	name string
	args map[string]any
}

// openRun starts process pid at atNS. A journal that starts mid-run (a
// tail) opens its first process at a non-run-start event.
func (t *Trace) openRun(pid int, e *obs.Event, base, atNS int64) *runTrack {
	name := "citroen run " + itoa(pid)
	var config map[string]any
	if e.Type == "run-start" {
		config = e.Fields
		name += " (budget " + itoa(int(obs.FieldFloat(config, "budget"))) + ")"
	}
	t.meta(pid, tunerTID, "process_name", map[string]any{"name": name})
	t.meta(pid, tunerTID, "thread_name", map[string]any{"name": "tuner"})
	r := &runTrack{pid: pid, slice: len(t.TraceEvents), iter: -1, base: base, startNS: atNS}
	t.slice(pid, tunerTID, "run", "span", base, atNS, atNS, scrubArgs(config))
	return r
}

// closeIteration ends the open iteration slice at the run's last event.
func (r *runTrack) closeIteration(t *Trace) {
	if r.iter >= 0 {
		t.TraceEvents[r.iter].Dur = float64(r.endNS-r.iterStartNS) / 1e3
	}
}

// close ends the run and its last iteration at its last event and packs its
// compiles into lanes.
func (r *runTrack) close(t *Trace) {
	r.closeIteration(t)
	t.TraceEvents[r.slice].Dur = float64(r.endNS-r.startNS) / 1e3
	packCompileLanes(t, r.pid, r.base, r.compiles)
}

// packCompileLanes assigns overlapping compile slices to the fewest lanes
// (first-fit by start time), mirroring how core.RunSpecs fans candidates over
// workers, and emits them on threads 1..N.
func packCompileLanes(tr *Trace, pid int, base int64, cs []compileSlice) {
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].span.startNS < cs[j].span.startNS })
	var laneEnd []int64
	for _, c := range cs {
		lane := -1
		for l, end := range laneEnd {
			if end <= c.span.startNS {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
			tr.meta(pid, lane+1, "thread_name", map[string]any{"name": "compile lane " + itoa(lane+1)})
		}
		laneEnd[lane] = c.span.endNS
		tr.slice(pid, lane+1, c.name, string(PhaseCompile), base, c.span.startNS, c.span.endNS, c.args)
	}
}

func (t *Trace) slice(pid, tid int, name, cat string, base, startNS, endNS int64, args map[string]any) {
	if endNS < startNS {
		endNS = startNS
	}
	t.TraceEvents = append(t.TraceEvents, TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: float64(startNS-base) / 1e3, Dur: float64(endNS-startNS) / 1e3,
		PID: pid, TID: tid, Args: args,
	})
}

func (t *Trace) instant(pid, tid int, name string, base, atNS int64, args map[string]any) {
	t.TraceEvents = append(t.TraceEvents, TraceEvent{
		Name: name, Ph: "i", S: "t",
		TS:  float64(atNS-base) / 1e3,
		PID: pid, TID: tid, Args: args,
	})
}

func (t *Trace) meta(pid, tid int, name string, args map[string]any) {
	t.TraceEvents = append(t.TraceEvents, TraceEvent{
		Name: name, Ph: "M", PID: pid, TID: tid, Args: args,
	})
}

// scrubArgs shallow-copies event fields for the args payload, dropping
// nothing: timing fields are useful context in a trace viewer.
func scrubArgs(f map[string]any) map[string]any {
	if len(f) == 0 {
		return nil
	}
	out := make(map[string]any, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func itoa(n int) string { return strconv.Itoa(n) }
