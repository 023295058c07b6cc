package analyze

import (
	"bytes"
	"encoding/json"
	"testing"
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
