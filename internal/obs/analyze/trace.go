package analyze

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

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

// ChromeTrace converts a journal into a Chrome trace-event document. Each
// run becomes one process (pid = run index + 1) with the tuner's serial
// timeline on thread 0 — the run span, iteration spans, and the serial
// measure/gp-fit/acq-max slices — while compile events, which
// overlap under parallel workers, are packed into "compile lane" threads so
// the fan-out width is visible. Incumbent improvements, checkpoints and
// resumes render as instant events.
func ChromeTrace(events []obs.Event) *Trace {
	tr := &Trace{DisplayTimeUnit: "ms"}
	tree := BuildTree(events)
	for runIdx, root := range tree.Roots {
		pid := runIdx + 1
		tr.meta(pid, tunerTID, "process_name", map[string]any{"name": processName(root, runIdx)})
		tr.meta(pid, tunerTID, "thread_name", map[string]any{"name": "tuner"})
		base := root.StartNS

		tr.slice(pid, tunerTID, "run", "span", base, root.StartNS, root.EndNS, scrubArgs(root.Open.Fields))
		var compiles []interval3
		emitSpanEvents(tr, pid, base, root, &compiles)
		for _, sp := range root.Children {
			name := "iteration"
			if sp.Open.Fields != nil {
				name = "iteration " + itoa(int(obs.FieldFloat(sp.Open.Fields, "iter")))
			}
			tr.slice(pid, tunerTID, name, "span", base, sp.StartNS, sp.EndNS, scrubArgs(sp.Open.Fields))
			emitSpanEvents(tr, pid, base, sp, &compiles)
		}
		packCompileLanes(tr, pid, base, compiles)
	}
	return tr
}

// WriteChromeTrace serialises the trace for a journal onto w.
func WriteChromeTrace(w io.Writer, events []obs.Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ChromeTrace(events))
}

type interval3 struct {
	startNS, endNS int64
	name           string
	args           map[string]any
}

// emitSpanEvents renders one span's leaf events: serial phases as slices on
// the tuner thread, compiles collected for lane packing, markers as instants.
func emitSpanEvents(tr *Trace, pid int, base int64, sp *Span, compiles *[]interval3) {
	for _, e := range sp.Events {
		t := eventEnd(sp, e)
		end := opEnd(&e, t)
		start := end - int64(obs.FieldFloat(e.Fields, "wall_ns"))
		if start < base {
			start = base
		}
		switch e.Type {
		case "compile":
			*compiles = append(*compiles, interval3{start, end, "compile " + fieldString(e.Fields, "module"), scrubArgs(e.Fields)})
		case "measure":
			tr.slice(pid, tunerTID, "measure "+fieldString(e.Fields, "module"), string(PhaseMeasure), base, start, end, scrubArgs(e.Fields))
		case "gp-fit":
			name := "gp refit"
			if obs.FieldBool(e.Fields, "appended") {
				name = "gp append"
			}
			tr.slice(pid, tunerTID, name, string(PhaseGPFit), base, start, end, scrubArgs(e.Fields))
		case "acq-max":
			tr.slice(pid, tunerTID, "acquisition", string(PhaseAcq), base, start, end, scrubArgs(e.Fields))
		case "new-incumbent":
			tr.instant(pid, tunerTID, "new incumbent", base, t, scrubArgs(e.Fields))
		case "checkpoint":
			tr.instant(pid, tunerTID, "checkpoint", base, t, scrubArgs(e.Fields))
		case "resume":
			tr.instant(pid, tunerTID, "resume", base, t, scrubArgs(e.Fields))
		}
	}
}

// eventEnd places an event on the run timeline. Journal events carry raw
// recorder time; the span tree was built on the spliced timeline, so clamp
// into the span (covers resumed journals whose clocks restarted).
func eventEnd(sp *Span, e obs.Event) int64 {
	t := e.TimeNS
	if t < sp.StartNS || t > sp.EndNS {
		// Restarted clock: fall back to the span's window edge.
		if t < sp.StartNS {
			t = sp.StartNS
		} else {
			t = sp.EndNS
		}
	}
	return t
}

// packCompileLanes assigns overlapping compile slices to the fewest lanes
// (first-fit by start time), mirroring how core.RunSpecs fans candidates over
// workers, and emits them on threads 1..N.
func packCompileLanes(tr *Trace, pid int, base int64, ivs []interval3) {
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].startNS < ivs[j].startNS })
	var laneEnd []int64
	for _, iv := range ivs {
		lane := -1
		for l, end := range laneEnd {
			if end <= iv.startNS {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
			tr.meta(pid, lane+1, "thread_name", map[string]any{"name": "compile lane " + itoa(lane+1)})
		}
		laneEnd[lane] = iv.endNS
		tr.slice(pid, lane+1, iv.name, string(PhaseCompile), base, iv.startNS, iv.endNS, iv.args)
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

func processName(root *Span, idx int) string {
	if f := root.Open.Fields; f != nil {
		return "citroen run " + itoa(idx+1) + " (budget " + itoa(int(obs.FieldFloat(f, "budget"))) + ")"
	}
	return "citroen run " + itoa(idx+1)
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
