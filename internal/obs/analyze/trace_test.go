package analyze

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The Chrome trace-event export must be schema-valid: ui.perfetto.dev is an
// external consumer we cannot integration-test, so the contract is checked
// structurally — JSON shape, phase codes, non-negative microsecond
// timestamps, durations inside the run slice, required metadata.
func TestChromeTraceSchema(t *testing.T) {
	events, _ := runJournal(t, 2, 5, 5)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	var runStart, runEnd float64
	counts := map[string]int{}
	haveProcName, haveThreadName := false, false
	for _, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event missing name/ph: %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event missing tid: %v", ev)
		}
		switch ph {
		case "M":
			if name == "process_name" {
				haveProcName = true
			}
			if name == "thread_name" {
				haveThreadName = true
			}
			continue
		case "X":
			ts, _ := ev["ts"].(float64)
			dur, _ := ev["dur"].(float64) // absent = 0, allowed
			if ts < 0 || dur < 0 {
				t.Fatalf("negative ts/dur: %v", ev)
			}
			if name == "run" {
				runStart, runEnd = ts, ts+dur
			}
		case "i":
			if s, _ := ev["s"].(string); s == "" {
				t.Fatalf("instant event missing scope: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase code %q", ph)
		}
		counts[ph]++
	}
	if !haveProcName || !haveThreadName {
		t.Fatal("missing process_name/thread_name metadata")
	}
	if counts["X"] < 3 || counts["i"] == 0 {
		t.Fatalf("slice/instant counts too small: %v", counts)
	}
	if runEnd <= runStart {
		t.Fatal("run slice missing or empty")
	}

	// Every slice and instant must land inside the run slice (small float
	// slack for the µs conversion).
	const eps = 1e-3
	sawCompile, sawIteration := false, false
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		ts, _ := ev["ts"].(float64)
		dur, _ := ev["dur"].(float64)
		if ts < runStart-eps || ts+dur > runEnd+eps {
			t.Fatalf("event outside run slice [%v,%v]: %v", runStart, runEnd, ev)
		}
		name, _ := ev["name"].(string)
		if cat, _ := ev["cat"].(string); cat == "compile" {
			sawCompile = true
		}
		if len(name) >= 9 && name[:9] == "iteration" {
			sawIteration = true
		}
	}
	if !sawCompile || !sawIteration {
		t.Fatalf("trace missing compile slices (%v) or iteration spans (%v)", sawCompile, sawIteration)
	}
}

// Compile lanes must not overlap within a lane — that is the invariant that
// makes the fan-out readable in Perfetto.
func TestChromeTraceLanePacking(t *testing.T) {
	events, _ := runJournal(t, 4, 4, 6)
	tr := ChromeTrace(events)
	type span struct{ start, end float64 }
	lanes := map[int][]span{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Cat == string(PhaseCompile) {
			lanes[ev.TID] = append(lanes[ev.TID], span{ev.TS, ev.TS + ev.Dur})
		}
	}
	if len(lanes) == 0 {
		t.Fatal("no compile lanes")
	}
	for tid, spans := range lanes {
		if tid == tunerTID {
			t.Fatal("compile slice on the tuner thread")
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end-1e-6 {
				t.Fatalf("lane %d overlaps: %v then %v", tid, spans[i-1], spans[i])
			}
		}
	}
}

// Each compile is drawn at its own interval, so the lanes packed from them
// are no more than the workers that ran them. Drawing every compile as
// ending when it was journalled, after the fan-out barrier, stacks a whole
// fan-out into one overlapping pile.
func TestChromeTraceCompileLanesAtMostWorkers(t *testing.T) {
	const workers = 2
	events, _ := runJournal(t, workers, 8, 1)
	lanes := map[int]bool{}
	for _, ev := range ChromeTrace(events).TraceEvents {
		if ev.Ph == "X" && ev.Cat == string(PhaseCompile) {
			lanes[ev.TID] = true
		}
	}
	if len(lanes) == 0 || len(lanes) > workers {
		t.Fatalf("%d compile lanes, want 1..%d", len(lanes), workers)
	}
}

// checkTraceAtTimeline checks that ChromeTrace draws every timed event at
// the interval the report's timeline placed it, that the tuner thread's
// slices do not overlap, and that the run slices lie end to end from 0 to
// Report.WallNS. It returns the trace.
func checkTraceAtTimeline(t *testing.T, events []obs.Event) *Trace {
	t.Helper()
	type slice struct {
		cat     string
		ts, dur float64
	}
	var tl timeline
	var want []slice
	for i := range events {
		if p := tl.feed(&events[i]); p.phase != "" {
			want = append(want, slice{string(p.phase), float64(p.span.startNS-tl.firstNS) / 1e3, float64(p.span.endNS-p.span.startNS) / 1e3})
		}
	}
	tr := ChromeTrace(events)
	var got, tuner, runs []slice
	for _, ev := range tr.TraceEvents {
		s := slice{ev.Cat, ev.TS, ev.Dur}
		switch {
		case ev.Ph != "X" || ev.Cat == "span" && ev.Name != "run":
		case ev.Name == "run":
			runs = append(runs, s)
		default:
			got = append(got, s)
			if ev.TID == tunerTID {
				tuner = append(tuner, s)
			}
		}
	}
	byTime := func(a, b slice) int {
		return cmp.Or(cmp.Compare(a.ts, b.ts), cmp.Compare(a.dur, b.dur), strings.Compare(a.cat, b.cat))
	}
	slices.SortFunc(want, byTime)
	slices.SortFunc(got, byTime)
	if !slices.Equal(got, want) {
		t.Fatalf("trace slices differ from the timeline's placement:\n got %v\nwant %v", got, want)
	}
	const eps = 1e-6 // µs; ts and dur are converted separately
	slices.SortFunc(tuner, byTime)
	for i := 1; i < len(tuner); i++ {
		if prev := tuner[i-1]; tuner[i].ts < prev.ts+prev.dur-eps {
			t.Fatalf("tuner-thread slices overlap: %v then %v", prev, tuner[i])
		}
	}
	wall := float64(Analyze(events).WallNS) / 1e3
	if len(runs) == 0 || runs[0].ts != 0 {
		t.Fatalf("run slices %v do not start at 0", runs)
	}
	for i := 1; i < len(runs); i++ {
		if prev := runs[i-1]; runs[i].ts < prev.ts+prev.dur-eps {
			t.Fatalf("run slices overlap: %v then %v", prev, runs[i])
		}
	}
	if last := runs[len(runs)-1]; last.ts+last.dur < wall-eps || last.ts+last.dur > wall+eps {
		t.Fatalf("last run slice %v does not end at the wall, %v µs", last, wall)
	}
	return tr
}

// Each iteration is one slice on the tuner thread, from its event up to the
// next iteration's or the run's end, so the iterations tile the rest of the
// run slice and the leaf events of the model-guided loop fall inside them.
func TestChromeTraceIterations(t *testing.T) {
	events, _ := runJournal(t, 1, 4, 3)
	tr := checkTraceAtTimeline(t, events)
	iters := 0
	for _, e := range events {
		if e.Type == "iteration" {
			iters++
		}
	}
	var run, prev *TraceEvent
	spans, leaves := 0, 0
	for i := range tr.TraceEvents {
		ev := &tr.TraceEvents[i]
		switch {
		case ev.Ph == "M" && ev.Name == "process_name" && ev.PID != 1:
			t.Fatalf("a one-run journal opened process %d", ev.PID)
		case ev.Ph != "X":
		case ev.Name == "run":
			run = ev
		case ev.Cat == "span":
			if !strings.HasPrefix(ev.Name, "iteration ") || ev.TID != tunerTID {
				t.Fatalf("unexpected span slice %+v", ev)
			}
			if prev != nil && math.Abs(prev.TS+prev.Dur-ev.TS) > 1e-6 {
				t.Fatalf("iteration %s ends at %v, the next starts at %v", prev.Name, prev.TS+prev.Dur, ev.TS)
			}
			prev = ev
			spans++
		case ev.TID == tunerTID && prev != nil && ev.TS >= prev.TS:
			leaves++
		}
	}
	if run == nil || spans != iters || spans == 0 {
		t.Fatalf("run slice %v, %d iteration slices for %d iteration events", run, spans, iters)
	}
	if math.Abs(prev.TS+prev.Dur-(run.TS+run.Dur)) > 1e-6 {
		t.Fatalf("last iteration ends at %v, the run at %v", prev.TS+prev.Dur, run.TS+run.Dur)
	}
	if leaves == 0 {
		t.Fatal("no tuner-thread slices inside the iterations")
	}
}
