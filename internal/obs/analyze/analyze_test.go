package analyze

import (
	"bytes"
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
	// For leaf phases elapsed never exceeds CPU: merged intervals are at most
	// the summed walls. (Acquisition is exempt — its CPU subtracts the SUMMED
	// nested-compile walls while its elapsed only loses the MERGED compile
	// coverage, so parallel compiles push elapsed above CPU by design.)
	for _, pt := range r.Phases {
		if pt.Phase == PhaseOther || pt.Phase == PhaseAcq {
			continue
		}
		if pt.ElapsedNS > pt.CPUNS {
			t.Fatalf("phase %s elapsed %d > cpu %d", pt.Phase, pt.ElapsedNS, pt.CPUNS)
		}
	}
	if r.CriticalPathNS <= 0 {
		t.Fatal("critical path not computed")
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
	if len(res.Breakdown.Counters) == 0 || res.Breakdown.Counters.Get("prefix_replayed_passes") == 0 {
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

// The acquisition phase must not double-count the compile fan-out nested
// inside its wall time.
func TestAttributionSubtractsNestedCompile(t *testing.T) {
	var att Attribution
	feed := func(typ string, wallNS int64) (Phase, int64) {
		p, cpu, ok := att.Feed(&obs.Event{Type: typ, Fields: map[string]any{"wall_ns": wallNS}})
		if !ok {
			t.Fatalf("%s not attributed", typ)
		}
		return p, cpu
	}
	if p, cpu := feed("compile", 6e6); p != PhaseCompile || cpu != 6e6 {
		t.Fatalf("compile -> %s %d", p, cpu)
	}
	if p, cpu := feed("acq-max", 10e6); p != PhaseAcq || cpu != 4e6 {
		t.Fatalf("acq-max -> %s %d, want acquisition 4e6 (10ms - 6ms nested compile)", p, cpu)
	}
	// Clamped at zero when compile exceeds the acquisition wall.
	feed("compile", 20e6)
	if _, cpu := feed("acq-max", 10e6); cpu != 0 {
		t.Fatalf("acq cpu = %d, want 0 (clamped)", cpu)
	}
	// Untimed events pass through unattributed.
	if _, _, ok := att.Feed(&obs.Event{Type: "new-incumbent"}); ok {
		t.Fatal("new-incumbent must not be attributed")
	}
}

// Checkpoint/resume journals restart the recorder clock; the analyzer must
// splice the epochs instead of producing a negative or overlapping timeline.
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
		mk(6, 150, "run-end", 0),
	}
	r := Analyze(events)
	// Spliced wall: 200 (first epoch) + 150 (second epoch, offset by 200).
	if r.WallNS != 350 {
		t.Fatalf("wall = %d, want 350 (spliced epochs)", r.WallNS)
	}
	if r.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", r.Resumes)
	}
	var sum int64
	for _, pt := range r.Phases {
		sum += pt.ElapsedNS
	}
	if sum != r.WallNS {
		t.Fatalf("phases sum %d != wall %d", sum, r.WallNS)
	}
	if cp := phaseByName(r, PhaseCompile); cp.CPUNS != 140 {
		t.Fatalf("compile cpu = %d, want 140", cp.CPUNS)
	}
}

func TestBuildTreeStructure(t *testing.T) {
	events, _ := runJournal(t, 1, 4, 3)
	tree := BuildTree(events)
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Type != "run-start" {
		t.Fatalf("root type = %s", root.Type)
	}
	iters := 0
	for _, e := range events {
		if e.Type == "iteration" {
			iters++
		}
	}
	if len(root.Children) != iters {
		t.Fatalf("children = %d, want %d iterations", len(root.Children), iters)
	}
	leafs := 0
	for _, sp := range root.Children {
		if sp.EndNS < sp.StartNS {
			t.Fatalf("span %d ends before it starts", sp.ID)
		}
		if sp.StartNS < root.StartNS || sp.EndNS > root.EndNS {
			t.Fatalf("iteration span [%d,%d] outside run [%d,%d]",
				sp.StartNS, sp.EndNS, root.StartNS, root.EndNS)
		}
		leafs += len(sp.Events)
	}
	if leafs == 0 {
		t.Fatal("no leaf events attached to iteration spans")
	}
}

// PhaseSink must agree with the offline report's CPU attribution — they
// share the Attribution state machine, so this is a wiring test.
func TestPhaseSinkMatchesReportCPU(t *testing.T) {
	events, _ := runJournal(t, 2, 4, 4)
	m := obs.NewMetrics()
	sink := NewPhaseSink(m)
	for i := range events {
		sink.Emit(&events[i])
	}
	r := Analyze(events)
	for _, p := range Phases {
		if p == PhaseOther {
			continue
		}
		got := m.Gauge(`citroen_phase_seconds{phase="` + string(p) + `"}`).Value()
		want := time.Duration(phaseByName(r, p).CPUNS).Seconds()
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("phase %s: gauge %v != report cpu %v", p, got, want)
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
	r.Measure(span, "m", 1, 90, 1.1, 1.1, true, false, 0)
	r.NewIncumbent(span, "m", 1, 1.1)
	r.Measure(span, "m", 0, 90, 1.1, 1.1, true, true, 0) // reused: not on the curve
	r.Measure(span, "m", 2, 95, 1.05, 1.1, true, false, 0)
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
