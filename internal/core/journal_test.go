package core

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// The journal must be deterministic modulo timing: the same seed with
// Workers=1 and Workers=8 produces canonically identical event streams
// (sequence numbers, spans, every non-"_ns"/"env_" field).
func TestJournalWorkerDeterminism(t *testing.T) {
	run := func(workers int) ([]obs.Event, *Result) {
		mem := &obs.MemorySink{}
		o := fastOpts()
		o.Workers = workers
		o.Sink = mem
		res, err := NewTuner(newSyntheticTask(t), o, 7).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return mem.Events(), res
	}
	evS, resS := run(1)
	evP, resP := run(8)
	if len(evS) == 0 {
		t.Fatal("no events journaled")
	}
	cS, cP := obs.Canonicalize(evS), obs.Canonicalize(evP)
	if len(cS) != len(cP) {
		t.Fatalf("event counts differ: %d vs %d", len(cS), len(cP))
	}
	for i := range cS {
		if !reflect.DeepEqual(cS[i], cP[i]) {
			t.Fatalf("event %d differs between Workers=1 and Workers=8:\n%+v\nvs\n%+v", i, cS[i], cP[i])
		}
	}
	if resS.BestSpeedup != resP.BestSpeedup {
		t.Fatalf("best speedup differs: %v vs %v", resS.BestSpeedup, resP.BestSpeedup)
	}
	// Feature slots are registered in sorted-key order and the GP fit is
	// bit-identical for every worker count, so the ARD ranking — ties and
	// all — is too.
	if len(resS.Importance) == 0 || !reflect.DeepEqual(resS.Importance, resP.Importance) {
		t.Fatalf("importance ranking differs between Workers=1 and Workers=8:\n%+v\nvs\n%+v", resS.Importance, resP.Importance)
	}
	// The parallel surrogate must actually take the incremental path, and
	// journal it at the serial sync points.
	if resS.Breakdown.GPAppends == 0 {
		t.Fatal("no incremental GP appends recorded (RefitEvery > 1 should produce some)")
	}
	var lastStats *obs.Event
	for i := range evS {
		if evS[i].Type == "stats" {
			lastStats = &evS[i]
		}
	}
	if lastStats == nil {
		t.Fatal("journal missing stats events")
	}
	if got := lastStats.Fields["gp_appends"]; got != int64(resS.Breakdown.GPAppends) {
		t.Fatalf("final stats event gp_appends = %v, breakdown says %d", got, resS.Breakdown.GPAppends)
	}
}

// The final new-incumbent event of a run must match Result.BestSpeedup, and
// the run-end summary must restate it — that is what makes a saved journal a
// faithful record of the run.
func TestJournalFinalIncumbentMatchesResult(t *testing.T) {
	mem := &obs.MemorySink{}
	o := fastOpts()
	o.Sink = mem
	res, err := NewTuner(newSyntheticTask(t), o, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	events := mem.Events()
	var lastInc, runEnd *obs.Event
	seenTypes := map[string]bool{}
	for i := range events {
		e := &events[i]
		seenTypes[e.Type] = true
		switch e.Type {
		case "new-incumbent":
			lastInc = e
		case "run-end":
			runEnd = e
		}
	}
	for _, typ := range []string{"run-start", "candidate-generated", "compile", "gp-fit", "stats", "acq-max", "measure", "new-incumbent", "run-end"} {
		if !seenTypes[typ] {
			t.Fatalf("journal missing %q events (saw %v)", typ, seenTypes)
		}
	}
	if lastInc == nil || runEnd == nil {
		t.Fatal("missing incumbent or run-end event")
	}
	if sp, ok := lastInc.Fields["speedup"].(float64); !ok || sp != res.BestSpeedup {
		t.Fatalf("final incumbent speedup = %v, Result.BestSpeedup = %v", lastInc.Fields["speedup"], res.BestSpeedup)
	}
	if sp, ok := runEnd.Fields["best_speedup"].(float64); !ok || sp != res.BestSpeedup {
		t.Fatalf("run-end best_speedup = %v, Result.BestSpeedup = %v", runEnd.Fields["best_speedup"], res.BestSpeedup)
	}
	if got := runEnd.Fields["measurements"]; got != res.Breakdown.Measures {
		t.Fatalf("run-end measurements = %v, breakdown says %d", got, res.Breakdown.Measures)
	}
	// The analyzer must agree with the raw events.
	rep := analyze.Analyze(events)
	if rep.Runs != 1 || !rep.Complete {
		t.Fatalf("analyzer found %d runs (complete %v), want one complete run", rep.Runs, rep.Complete)
	}
	if rep.BestSpeedup != res.BestSpeedup {
		t.Fatalf("replayed best speedup = %v, want %v", rep.BestSpeedup, res.BestSpeedup)
	}
}

// A registry shared across runs must not corrupt per-run breakdown counts:
// the tuner snapshots its counters at construction and reports deltas.
func TestSharedMetricsRegistryPerRunCounts(t *testing.T) {
	met := obs.NewMetrics()
	var counts []int
	for seed := int64(1); seed <= 2; seed++ {
		o := fastOpts()
		o.Metrics = met
		res, err := NewTuner(newSyntheticTask(t), o, seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Breakdown.Measures)
	}
	total := int(met.Counter("citroen_measurements_total").Value())
	if counts[0]+counts[1] != total {
		t.Fatalf("per-run measures %v do not sum to registry total %d", counts, total)
	}
	if counts[1] > total-counts[0]+0 || counts[1] <= 0 {
		t.Fatalf("second run's measures (%d) not a per-run delta (registry total %d)", counts[1], total)
	}
}

// With no sink, the journal path must be allocation-free and the tuner must
// behave identically to a journaled run (observability cannot steer the
// search).
func TestDisabledJournalDoesNotChangeSearch(t *testing.T) {
	runWith := func(sink obs.Sink) *Result {
		o := fastOpts()
		o.Sink = sink
		res, err := NewTuner(newSyntheticTask(t), o, 11).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := runWith(nil)
	journaled := runWith(&obs.MemorySink{})
	if !reflect.DeepEqual(bare.Trace, journaled.Trace) {
		t.Fatal("journaling changed the measurement trace")
	}
	if bare.BestSpeedup != journaled.BestSpeedup || !reflect.DeepEqual(bare.BestSeqs, journaled.BestSeqs) {
		t.Fatal("journaling changed the search result")
	}
}
