package bench

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/passes"
)

func obsTunerOpts() core.Options {
	o := core.DefaultOptions()
	o.Budget = 8
	o.Lambda = 4
	o.InitRandom = 3
	o.GPOpts.AdamSteps = 10
	return o
}

// End-to-end: a real evaluator run journaled through JSONL must decode to the
// same canonical event stream for Workers=1 and Workers=8, and the journal
// must agree with the returned Result.
func TestJournalEndToEndWorkerEquality(t *testing.T) {
	run := func(workers int) ([]obs.Event, *core.Result, *obs.Metrics) {
		ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 5)
		if err != nil {
			t.Fatal(err)
		}
		met := obs.NewMetrics()
		ev.SetObs(met, passes.NewProfile())
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		o := obsTunerOpts()
		o.Workers = workers
		o.Sink = obs.Multi(sink, analyze.NewMetricsSink(met))
		res, err := core.NewTuner(ev.Task(), o, 5).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJournal(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return events, res, met
	}

	evS, resS, metS := run(1)
	evP, resP, _ := run(8)

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

	// Replayed journal agrees with the Result.
	rep := analyze.Analyze(evS)
	if rep.Runs != 1 {
		t.Fatalf("analyzer found %d runs, want 1", rep.Runs)
	}
	if rep.BestSpeedup != resS.BestSpeedup {
		t.Fatalf("replayed best speedup %v != Result %v", rep.BestSpeedup, resS.BestSpeedup)
	}
	if len(rep.PassProfile) == 0 {
		t.Fatal("run-end event carries no pass profile")
	}

	// The registry's cache counters are the journal's.
	if hits := metS.Counter("citroen_cache_hits_total").Value(); hits == 0 || hits != rep.Counters.Get("cache_hits") {
		t.Fatalf("citroen_cache_hits_total = %d, journal %d: want the journal's nonzero count for a run with repeated incumbents", hits, rep.Counters.Get("cache_hits"))
	}

	// Per-pass profile came through the Result too, deterministically ordered.
	if len(resS.PassProfile) == 0 {
		t.Fatal("Result.PassProfile empty with profiling enabled")
	}
	for i := 1; i < len(resS.PassProfile); i++ {
		if resS.PassProfile[i-1].DeltaTotal() < resS.PassProfile[i].DeltaTotal() {
			t.Fatal("Result.PassProfile not sorted by delta")
		}
	}
}

// SetObs must feed the machine-cycles histogram from every timing run and the
// pass profile from every pipeline execution.
func TestSetObsCountersAndHistogram(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 3)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	prof := passes.NewProfile()
	ev.SetObs(met, prof)

	if _, _, err := ev.Measure(map[string][]string{"long_term": {"mem2reg", "instcombine"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.Measure(map[string][]string{"long_term": {"mem2reg", "instcombine"}}); err != nil {
		t.Fatal(err)
	}

	hits, misses := ev.CacheCounters()
	// numDatasets × noiseRuns timing samples per Measure call.
	wantSamples := int64(2 * numDatasets * noiseRuns)
	if got := met.Histogram("machine_run_cycles", nil).Count(); got != wantSamples {
		t.Fatalf("cycles histogram has %d samples, want %d", got, wantSamples)
	}
	// The second, fully cached Measure must run no pipelines; profiled
	// invocations come only from the first build's misses.
	if len(prof.Costs()) == 0 {
		t.Fatal("pass profile empty after measurements")
	}
	if misses == 0 || hits == 0 {
		t.Fatalf("expected both hits and misses, got %d/%d", hits, misses)
	}
}
