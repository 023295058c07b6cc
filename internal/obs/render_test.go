package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// emitAll drives every event-emitting Recorder method exactly once and
// returns the recorder's method count, so the coverage test fails loudly
// when a new emit method appears without being added here.
func emitAll(r *Recorder) (emitterMethods int) {
	run := r.RunStart(map[string]any{"budget": 10, "lambda": 9, "feature": "stats", "hot_modules": []string{"m"}})
	iter := r.Iteration(run, 1, 3)
	r.CandidateGenerated(iter, "m", "des", 12, 99)
	r.Compile(iter, "m", 12, 99, true, time.Millisecond, time.Time{})
	r.GPFit(iter, 20, 8, false, time.Millisecond)
	r.AcqMax(iter, 9, 0, "m", 0.5, false, 2, time.Millisecond)
	r.Measure(iter, "m", 3, []string{"mem2reg", "dce"}, 1000, 1.2, 1.3, true, false, time.Millisecond)
	r.Stats(iter, CounterSet{{Name: "cache_hits", Value: 4}, {Name: "machine_pool_gets", Value: 7, Env: true}})
	r.FleetIncident(iter, "retry", "r1", "m", 2)
	r.NewIncumbent(iter, "m", 3, 1.3)
	r.Resume(run, 3, 1.3)
	r.RunEnd(run, map[string]any{"best_speedup": 1.3, "measurements": 3, "compilations": 12})

	// Count the exported methods that emit events: everything except the
	// introspection helpers.
	nonEmitters := map[string]bool{"Enabled": true}
	typ := reflect.TypeOf(r)
	for i := 0; i < typ.NumMethod(); i++ {
		if !nonEmitters[typ.Method(i).Name] {
			emitterMethods++
		}
	}
	return emitterMethods
}

// Every event type a Recorder can emit must have a text renderer: a new
// event type silently rendering blank in the -v trace is the failure mode
// this test exists to prevent.
func TestRendererCoversAllEventTypes(t *testing.T) {
	mem := &MemorySink{}
	emitters := emitAll(NewRecorder(mem))
	events := mem.Events()
	if len(events) != emitters {
		t.Fatalf("emitAll drove %d events but *Recorder has %d emit methods — update emitAll for the new method(s)",
			len(events), emitters)
	}

	rendered := map[string]bool{}
	for _, typ := range RenderedTypes() {
		rendered[typ] = true
	}
	for i := range events {
		e := &events[i]
		if !rendered[e.Type] {
			t.Errorf("event type %q has no renderer", e.Type)
			continue
		}
		var buf strings.Builder
		NewTextRenderer(&buf).Emit(e)
		if strings.TrimSpace(buf.String()) == "" {
			t.Errorf("event type %q renders blank", e.Type)
		}
	}
}

// Unknown event types (a journal written by a newer build) must render raw,
// never blank.
func TestRendererUnknownTypeRendersRaw(t *testing.T) {
	var buf strings.Builder
	NewTextRenderer(&buf).Emit(&Event{Seq: 1, Type: "from-the-future", Fields: map[string]any{"x": 1}})
	if !strings.Contains(buf.String(), "from-the-future") {
		t.Fatalf("unknown event type rendered %q, want the raw type name", buf.String())
	}
}
