package analyze

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// runJournal drives a real (small) tuning run and returns its journal plus
// the tuner result, so analyzer assertions check against ground truth.
func runJournal(t *testing.T, workers int, budget int, seed int64) ([]obs.Event, *core.Result) {
	t.Helper()
	ev, err := bench.NewEvaluator(bench.ByName("automotive_bitcount"), bench.ARM(), seed)
	if err != nil {
		t.Fatal(err)
	}
	mem := &obs.MemorySink{}
	opts := core.DefaultOptions()
	opts.Budget = budget
	opts.Lambda = 4
	opts.InitRandom = 2
	opts.GPOpts.AdamSteps = 10
	opts.Workers = workers
	opts.Sink = mem
	res, err := core.NewTuner(ev.Task(), opts, seed).Run()
	if err != nil {
		t.Fatal(err)
	}
	return mem.Events(), res
}

func phaseByName(r *Report, p Phase) PhaseTotal {
	for _, pt := range r.Phases {
		if pt.Phase == p {
			return pt
		}
	}
	return PhaseTotal{}
}

func TestAnalyzeRealRun(t *testing.T) {
	events, res := runJournal(t, 2, 6, 1)
	r := Analyze(events)

	if r.Runs != 1 || !r.Complete {
		t.Fatalf("runs=%d complete=%v, want 1 complete run", r.Runs, r.Complete)
	}
	if r.Events != len(events) {
		t.Fatalf("events=%d, want %d", r.Events, len(events))
	}
	if r.WallNS <= 0 {
		t.Fatalf("wall=%d, want > 0", r.WallNS)
	}

	// The phase ElapsedNS partition the run timeline: including "other"
	// they must sum to the wall time exactly — the invariant the live
	// /summary endpoint's 5%-of-wall acceptance check rides on.
	var sum int64
	for _, pt := range r.Phases {
		if pt.ElapsedNS < 0 {
			t.Fatalf("phase %s elapsed negative: %d", pt.Phase, pt.ElapsedNS)
		}
		sum += pt.ElapsedNS
	}
	if sum != r.WallNS {
		t.Fatalf("phase elapsed sum %d != wall %d", sum, r.WallNS)
	}

	// A real run compiles and measures.
	if phaseByName(r, PhaseCompile).Events == 0 || phaseByName(r, PhaseCompile).CPUNS == 0 {
		t.Fatal("no compile attribution")
	}
	if phaseByName(r, PhaseMeasure).Events == 0 {
		t.Fatal("no measure attribution")
	}
	// Elapsed never exceeds CPU: merged intervals are at most the summed
	// walls.
	for _, pt := range r.Phases {
		if pt.Phase != PhaseOther && pt.ElapsedNS > pt.CPUNS {
			t.Fatalf("phase %s elapsed %d > cpu %d", pt.Phase, pt.ElapsedNS, pt.CPUNS)
		}
	}
	// The tuner goroutine is idle while two workers compile, so acquisition
	// CPU is the elapsed time its fan-out left, not the acq-max wall minus
	// the summed compile walls (which reads 0 once compiles overlap).
	if acq := phaseByName(r, PhaseAcq); acq.CPUNS <= 0 || acq.CPUNS != acq.ElapsedNS {
		t.Fatalf("acquisition cpu %d, elapsed %d: want equal and > 0", acq.CPUNS, acq.ElapsedNS)
	}

	// Ground truth against the tuner's own result.
	if r.BestSpeedup != res.BestSpeedup {
		t.Fatalf("best speedup %v != result %v", r.BestSpeedup, res.BestSpeedup)
	}
	if r.Measurements != res.Breakdown.Measures {
		t.Fatalf("measurements %d != result %d", r.Measurements, res.Breakdown.Measures)
	}
	// Breakdown.Compiles excludes the per-module baseline compiles; the
	// journal records them too, one per hot module.
	baseline := 0
	for _, e := range events {
		if e.Type == "run-start" {
			switch hot := e.Fields["hot_modules"].(type) {
			case []string:
				baseline = len(hot)
			case []any:
				baseline = len(hot)
			}
		}
	}
	if baseline == 0 {
		t.Fatal("run-start event has no hot_modules")
	}
	if r.Compiles != res.Breakdown.Compiles+baseline {
		t.Fatalf("compiles %d != result %d + %d baseline", r.Compiles, res.Breakdown.Compiles, baseline)
	}
	// Every counter of the Result reached the report with its final value.
	if len(res.Breakdown.Counters) == 0 || res.Breakdown.Counters.Get("build_passes") == 0 {
		t.Fatalf("Result carries no counters: %+v", res.Breakdown.Counters)
	}
	for _, c := range res.Breakdown.Counters.Canonical() {
		if got := r.Counters.Get(c.Name); got != c.Value {
			t.Errorf("report %s = %d, Result says %d", c.Name, got, c.Value)
		}
	}
	if int(r.Counters.Get("gp_fits")) != res.Breakdown.GPFits || int(r.Counters.Get("gp_appends")) != res.Breakdown.GPAppends {
		t.Fatalf("gp rows (%d,%d) != breakdown (%d,%d)", r.Counters.Get("gp_fits"), r.Counters.Get("gp_appends"),
			res.Breakdown.GPFits, res.Breakdown.GPAppends)
	}
	if len(r.Modules) == 0 {
		t.Fatal("no per-module report")
	}
	if r.Iterations == 0 {
		t.Fatal("no iterations counted")
	}
}

// The streaming analyzer must tolerate Report() snapshots mid-stream: the
// serve endpoints poll a running job's journal repeatedly.
func TestAnalyzerStreamingSnapshotsMatchBatch(t *testing.T) {
	events, _ := runJournal(t, 1, 4, 2)
	batch := Analyze(events)

	a := NewAnalyzer()
	for i := range events {
		a.Feed(&events[i])
		if i%7 == 0 {
			snap := a.Report() // must not perturb later results
			var sum int64
			for _, pt := range snap.Phases {
				sum += pt.ElapsedNS
			}
			if sum != snap.WallNS {
				t.Fatalf("mid-stream snapshot at %d: phases sum %d != wall %d", i, sum, snap.WallNS)
			}
		}
	}
	final := a.Report()
	if final.WallNS != batch.WallNS || final.Measurements != batch.Measurements ||
		final.BestSpeedup != batch.BestSpeedup || final.Compiles != batch.Compiles {
		t.Fatalf("streaming final %+v differs from batch %+v", final, batch)
	}
	for _, p := range Phases {
		if phaseByName(final, p) != phaseByName(batch, p) {
			t.Fatalf("phase %s: streaming %+v != batch %+v", p, phaseByName(final, p), phaseByName(batch, p))
		}
	}
}

// Resumed journals restart the recorder clock; the analyzer must
// splice the epochs instead of producing a negative or overlapping timeline,
// and the Perfetto export must draw the second epoch after the first, not
// at its raw clock.
func TestAnalyzerSplicesRestartedClock(t *testing.T) {
	mk := func(seq, tNS int64, typ string, wallNS int64) obs.Event {
		return obs.Event{Seq: seq, TimeNS: tNS, Type: typ,
			Fields: map[string]any{"wall_ns": wallNS, "ok": true}}
	}
	events := []obs.Event{
		mk(1, 0, "run-start", 0),
		mk(2, 100, "compile", 80),
		mk(3, 200, "measure", 50),
		// Process restart: clock rewinds to near zero, seq keeps growing.
		mk(4, 10, "resume", 0),
		mk(5, 90, "compile", 60),
		mk(6, 150, "measure", 40),
		mk(7, 160, "run-end", 0),
	}
	r := Analyze(events)
	// Spliced wall: 200 (first epoch) + 160 (second epoch, offset by 200).
	if r.WallNS != 360 {
		t.Fatalf("wall = %d, want 360 (spliced epochs)", r.WallNS)
	}
	if r.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", r.Resumes)
	}
	want := []PhaseTotal{
		{Phase: PhaseCompile, ElapsedNS: 140, CPUNS: 140, Events: 2},
		{Phase: PhaseMeasure, ElapsedNS: 90, CPUNS: 90, Events: 2},
		{Phase: PhaseGPFit}, {Phase: PhaseAcq},
		{Phase: PhaseOther, ElapsedNS: 130},
	}
	if !slices.Equal(r.Phases, want) {
		t.Fatalf("phases = %+v, want %+v", r.Phases, want)
	}

	// The trace draws every timed event where the timeline placed it: the
	// second epoch's compile at [230,290] on the first lane, its measure at
	// [310,350] inside the 360 ns run slice.
	tr := checkTraceAtTimeline(t, events)
	type slice struct {
		cat     string
		tid     int
		ts, dur float64
	}
	var got []slice
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Cat != "span" {
			got = append(got, slice{ev.Cat, ev.TID, ev.TS, ev.Dur})
		}
	}
	wantSlices := []slice{
		{"measure", tunerTID, 0.15, 0.05}, {"measure", tunerTID, 0.31, 0.04},
		{"compile", 1, 0.02, 0.08}, {"compile", 1, 0.23, 0.06},
	}
	if !slices.Equal(got, wantSlices) {
		t.Fatalf("slices %+v, want %+v", got, wantSlices)
	}
}

// One metrics sink per process, on one registry, fed a run and its resume
// from that run's journal to a larger budget, books what the two Results account:
// each series equals the Result counts summed over both processes, each
// canonical counter row's series the row summed over the two runs' last
// stats events, each Env row's gauge the resumed run's last value, the
// incumbent gauge the resumed run's best, and the phase gauges the report's
// CPU attribution of the spliced journal. The report of that journal reads
// the same numbers.
func TestMetricsSinkMatchesResult(t *testing.T) {
	const seed = 5
	m := obs.NewMetrics()
	var events []obs.Event
	var lastStats []map[string]any // per run
	run := func(budget int, from []obs.Event) *core.Result {
		ev, err := bench.NewEvaluator(bench.ByName("telecom_gsm"), bench.ARM(), seed)
		if err != nil {
			t.Fatal(err)
		}
		mem := &obs.MemorySink{}
		opts := core.DefaultOptions()
		opts.Budget = budget
		opts.Lambda = 4
		opts.InitRandom = 3
		opts.GPOpts.AdamSteps = 10
		opts.Workers = 2
		opts.Sink = obs.Multi(mem, NewMetricsSink(m))
		opts.ResumeFrom = from
		res, err := core.NewTuner(ev.Task(), opts, seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, mem.Events()...)
		var last map[string]any
		for _, e := range mem.Events() {
			if e.Type == "stats" {
				last = e.Fields
			}
		}
		lastStats = append(lastStats, last)
		return res
	}
	first := run(8, nil)
	resumedAt := len(events)
	second := run(16, slices.Clone(events))

	var meas, saved, compiles, dups, appends int
	for _, res := range []*core.Result{first, second} {
		meas += len(res.Trace)
		saved += res.SavedMeasurements
		compiles += res.Breakdown.Compiles
		dups += int(math.Round(res.CandidateDupRate * float64(res.Breakdown.Compiles)))
		appends += res.Breakdown.GPAppends
	}
	if meas != second.Breakdown.Measures || compiles == 0 || appends == 0 || dups == 0 {
		t.Fatalf("degenerate runs: %d measurements (resumed run consumed %d), %d compiles, %d appends, %d dups",
			meas, second.Breakdown.Measures, compiles, appends, dups)
	}
	r := Analyze(events)
	for _, c := range []struct {
		series       string
		want, report int
	}{
		{"citroen_measurements_total", meas, r.Measurements},
		{"citroen_saved_measurements_total", saved, r.ReusedMeasurements},
		{"citroen_compilations_total", compiles, r.CandidateCompiles},
		{"citroen_candidate_dups_total", dups, r.CandidateDups},
		{"citroen_gp_appends_total", appends, r.GPAppends},
	} {
		if got := m.Counter(c.series).Value(); got != int64(c.want) || c.report != c.want {
			t.Errorf("%s = %d, report %d, Results %d", c.series, got, c.report, c.want)
		}
	}
	// One sink fed the spliced journal books the same rows: each run-start
	// restarts the canonical rows' deltas.
	spliced := obs.NewMetrics()
	one := NewMetricsSink(spliced)
	for i := range events {
		one.Feed(&events[i])
	}
	rows := 0
	for key := range lastStats[1] {
		env := strings.HasPrefix(key, "env_")
		if !env {
			rows++
		}
		for name, reg := range map[string]*obs.Metrics{"per-run sinks": m, "one sink": spliced} {
			if env {
				want := obs.FieldFloat(lastStats[1], key)
				if got := reg.Gauge("citroen_" + key).Value(); got != want {
					t.Errorf("%s: citroen_%s = %v, the resumed run's last stats event %v", name, key, got, want)
				}
				continue
			}
			want := int64(obs.FieldFloat(lastStats[0], key) + obs.FieldFloat(lastStats[1], key))
			if got := reg.Counter("citroen_" + key + "_total").Value(); got != want {
				t.Errorf("%s: citroen_%s_total = %d, the two runs' last stats events sum to %d", name, key, got, want)
			}
		}
	}
	if rows < 7 || obs.FieldFloat(lastStats[1], "pipeline_runs") == 0 {
		t.Fatalf("resumed run's last stats event has %d canonical rows: %v", rows, lastStats[1])
	}
	if got := m.Gauge("citroen_incumbent_speedup").Value(); got != second.BestSpeedup || r.BestSpeedup != got {
		t.Errorf("citroen_incumbent_speedup = %v, report %v, Result %v", got, r.BestSpeedup, second.BestSpeedup)
	}
	// Until the resumed process improves on it, its incumbent is the one its
	// resume event restores from the first run's journal.
	upToResume := NewMetricsSink(obs.NewMetrics())
	for i := resumedAt; i < len(events); i++ {
		upToResume.Feed(&events[i])
		if events[i].Type == "resume" {
			break
		}
	}
	if got := upToResume.series.incumbent.Value(); got != first.BestSpeedup || upToResume.Report().BestSpeedup != got {
		t.Errorf("incumbent after resume = %v, report %v, first run %v", got, upToResume.Report().BestSpeedup, first.BestSpeedup)
	}
	for _, p := range Phases {
		if p == PhaseOther {
			continue
		}
		got := m.Gauge(`citroen_phase_seconds{phase="` + string(p) + `"}`).Value()
		want := time.Duration(phaseByName(r, p).CPUNS).Seconds()
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("phase %s: gauge %v != report cpu %v", p, got, want)
		}
	}
}

// A replayed journal must give back the measurement curve without the reused
// measurements, the incumbent steps, and the run-end pass profile — whether
// the events come from memory or were decoded from JSON — and the report must
// print the profile.
func TestAnalyzeCurveIncumbentsAndPassProfile(t *testing.T) {
	mem := &obs.MemorySink{}
	r := obs.NewRecorder(mem)
	span := r.RunStart(map[string]any{"budget": 3})
	r.NewIncumbent(span, "", 0, 1.0)
	r.Measure(span, "m", 1, nil, 90, 1.1, 1.1, true, false, 0)
	r.NewIncumbent(span, "m", 1, 1.1)
	r.Measure(span, "m", 0, nil, 90, 1.1, 1.1, true, true, 0) // reused: not on the curve
	r.Measure(span, "m", 2, nil, 95, 1.05, 1.1, true, false, 0)
	r.RunEnd(span, map[string]any{
		"best_speedup": 1.1,
		"pass_profile": []any{map[string]any{
			"pass": "gvn", "invocations": 4, "fired": 2, "wall_ns": int64(100), "delta_total": 9,
		}},
	})
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for _, e := range mem.Events() {
		sink.Emit(&e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, events := range map[string][]obs.Event{"memory": mem.Events(), "json": decoded} {
		rep := Analyze(events)
		if rep.Runs != 1 || !rep.Complete || rep.BestSpeedup != 1.1 || rep.ReusedMeasurements != 1 {
			t.Fatalf("%s: report = %+v", name, rep)
		}
		if len(rep.Curve) != 2 || rep.Curve[0].Measurement != 1 || rep.Curve[1].Speedup != 1.05 {
			t.Fatalf("%s: curve = %+v", name, rep.Curve)
		}
		if len(rep.Incumbents) != 2 {
			t.Fatalf("%s: incumbents = %+v", name, rep.Incumbents)
		}
		want := PassRow{Pass: "gvn", Invocations: 4, Fired: 2, WallNS: 100, DeltaTotal: 9}
		if len(rep.PassProfile) != 1 || rep.PassProfile[0] != want {
			t.Fatalf("%s: pass profile = %+v", name, rep.PassProfile)
		}
		var text bytes.Buffer
		WriteReport(&text, rep)
		if !strings.Contains(text.String(), "per-pass profile:") || !strings.Contains(text.String(), "gvn") {
			t.Fatalf("%s: report lacks the pass profile:\n%s", name, text.String())
		}
	}
}
