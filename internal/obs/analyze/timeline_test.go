package analyze

import (
	"context"
	"slices"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// sweepOracle is the interval sweep the timeline replaced, kept as its
// oracle. Each timed event's interval is placed on the spliced clock; at
// every elementary segment a covering leaf phase (compile, measure, gp-fit)
// wins over the acquisition interval that nests it, and overlapping
// intervals of one phase count once. CPU is the sum of event walls. Where
// two leaf phases overlap, the sweep has no answer of its own (the first in
// Phases order wins here), so it is an oracle only for journals whose
// leaves do not overlap, which a tuner's never do.
func sweepOracle(events []obs.Event) (elapsed, cpu map[Phase]int64) {
	elapsed, cpu = map[Phase]int64{}, map[Phase]int64{}
	type edge struct {
		t     int64
		open  bool
		phase Phase
	}
	var edges []edge
	var offset, last, first int64
	for i := range events {
		e := &events[i]
		t := e.TimeNS + offset
		if t < last {
			offset = last
			t = e.TimeNS + offset
		}
		last = t
		if i == 0 {
			first = t
		}
		p := timedPhase(e.Type)
		if p == "" {
			continue
		}
		wall := int64(obs.FieldFloat(e.Fields, "wall_ns"))
		cpu[p] += wall
		end := opEnd(e, t)
		start := min(max(end-wall, first), end)
		if end > start {
			edges = append(edges, edge{start, true, p}, edge{end, false, p})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return !edges[i].open && edges[j].open
	})
	depth := map[Phase]int{}
	for i, ed := range edges {
		if i > 0 && ed.t > edges[i-1].t {
			// Phases lists the leaves before acquisition.
			for _, p := range Phases {
				if depth[p] > 0 {
					elapsed[p] += ed.t - edges[i-1].t
					break
				}
			}
		}
		if ed.open {
			depth[ed.phase]++
		} else {
			depth[ed.phase]--
		}
	}
	return elapsed, cpu
}

// tuneJournal journals a tuning run with the default options.
func tuneJournal(t *testing.T, name string, plat bench.Platform, workers, budget int, seed int64) []obs.Event {
	t.Helper()
	ev, err := bench.NewEvaluator(bench.ByName(name), plat, seed)
	if err != nil {
		t.Fatal(err)
	}
	mem := &obs.MemorySink{}
	opts := core.DefaultOptions()
	opts.Budget, opts.Workers, opts.Sink = budget, workers, mem
	if _, err := core.NewTuner(ev.Task(), opts, seed).Run(); err != nil {
		t.Fatal(err)
	}
	return mem.Events()
}

// cancelAfter is a sink that cancels the run once its budget-consuming
// measurement numbered measurements is journalled.
type cancelAfter struct {
	measurements int
	cancel       context.CancelFunc
}

func (c cancelAfter) Emit(e *obs.Event) {
	if e.Type == "measure" && int(obs.FieldFloat(e.Fields, "measurement")) == c.measurements {
		c.cancel()
	}
}

// resumedJournal interrupts a tuning run after its fourth measurement and
// resumes it from its journal with a fresh evaluator and tuner, both
// journalling into one sink, the way a restarted job server does: the second
// tuner's recorder clock starts again near 0.
func resumedJournal(t *testing.T) []obs.Event {
	t.Helper()
	mem := &obs.MemorySink{}
	opts := core.DefaultOptions()
	opts.Budget, opts.Lambda, opts.InitRandom, opts.GPOpts.AdamSteps = 10, 4, 2, 10
	task := func() core.Task {
		ev, err := bench.NewEvaluator(bench.ByName("automotive_bitcount"), bench.ARM(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Task()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Sink = obs.Multi(mem, cancelAfter{measurements: 4, cancel: cancel})
	core.NewTuner(task(), opts, 1).RunContext(ctx)
	opts.Sink, opts.ResumeFrom = mem, mem.Events()
	if _, err := core.NewTuner(task(), opts, 1).Run(); err != nil {
		t.Fatal(err)
	}
	events := mem.Events()
	if r := Analyze(events); r.Runs != 2 || r.Resumes != 1 || !r.Complete {
		t.Fatalf("resumed journal: runs %d, resumes %d, complete %v", r.Runs, r.Resumes, r.Complete)
	}
	return events
}

// The timeline books exactly the sweep's elapsed time on real journals, and
// the sweep's CPU for every phase but acquisition, whose CPU is now its
// booked elapsed time.
func TestTimelineMatchesSweepOracle(t *testing.T) {
	canonical, err := obs.ReadJournalFile("testdata/canonical_gsm_b8_s3.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	journals := map[string][]obs.Event{
		"canonical gsm b8 s3": canonical,
		"gsm w1":              tuneJournal(t, "telecom_gsm", bench.ARM(), 1, 8, 3),
		"gsm w8":              tuneJournal(t, "telecom_gsm", bench.ARM(), 8, 8, 3),
		"x264 w2":             tuneJournal(t, "525.x264_r", bench.X86(), 2, 10, 1),
		"resumed":             resumedJournal(t),
	}
	for name, events := range journals {
		elapsed, cpu := sweepOracle(events)
		r := Analyze(events)
		if phaseByName(r, PhaseAcq).Events == 0 || phaseByName(r, PhaseCompile).Events < 2 {
			t.Fatalf("%s: journal never reaches the model-guided loop: %+v", name, r.Phases)
		}
		var booked int64
		for _, pt := range r.Phases {
			booked += pt.ElapsedNS
			if pt.Phase == PhaseOther {
				continue
			}
			if pt.ElapsedNS != elapsed[pt.Phase] {
				t.Errorf("%s: %s elapsed %d, sweep %d", name, pt.Phase, pt.ElapsedNS, elapsed[pt.Phase])
			}
			wantCPU := cpu[pt.Phase]
			if pt.Phase == PhaseAcq {
				wantCPU = pt.ElapsedNS
			}
			if pt.CPUNS != wantCPU {
				t.Errorf("%s: %s cpu %d, want %d", name, pt.Phase, pt.CPUNS, wantCPU)
			}
		}
		if booked != r.WallNS {
			t.Errorf("%s: phases sum %d != wall %d", name, booked, r.WallNS)
		}
		checkTraceAtTimeline(t, events)
	}
}

// Two workers compile for 6 ms each over the same stretch of a 10 ms
// acquisition: the fan-out takes 6 ms of the run and the tuner goroutine
// the other 4 ms, which is acquisition's elapsed and CPU time. Subtracting
// the summed compile walls (12 ms) from the acq-max wall would leave 0.
func TestTimelineSubtractsNestedFanout(t *testing.T) {
	compile := func(seq int64) obs.Event {
		return obs.Event{Seq: seq, TimeNS: 9e6, Type: "compile",
			Fields: map[string]any{"wall_ns": int64(6e6), "end_ns": int64(8e6), "ok": true}}
	}
	events := []obs.Event{
		{Seq: 1, TimeNS: 0, Type: "run-start"},
		{Seq: 2, TimeNS: 0, Type: "iteration", Fields: map[string]any{"iter": 0}},
		compile(3), compile(4),
		{Seq: 5, TimeNS: 10e6, Type: "acq-max", Fields: map[string]any{"wall_ns": int64(10e6)}},
		{Seq: 6, TimeNS: 10e6, Type: "new-incumbent", Fields: map[string]any{"speedup": 1.0}},
	}
	want := []PhaseTotal{
		{Phase: PhaseCompile, ElapsedNS: 6e6, CPUNS: 12e6, Events: 2},
		{Phase: PhaseMeasure}, {Phase: PhaseGPFit},
		{Phase: PhaseAcq, ElapsedNS: 4e6, CPUNS: 4e6, Events: 1},
		{Phase: PhaseOther},
	}
	r := Analyze(events)
	if r.WallNS != 10e6 || !slices.Equal(r.Phases, want) {
		t.Fatalf("wall %d, phases %+v; want 10ms, %+v", r.WallNS, r.Phases, want)
	}
	m := obs.NewMetrics()
	sink := NewMetricsSink(m)
	for i := range events {
		sink.Emit(&events[i])
	}
	if got := m.Gauge(`citroen_phase_seconds{phase="acquisition"}`).Value(); got != 0.004 {
		t.Fatalf("acquisition gauge %v, want 0.004", got)
	}
}

// One journal gives one report. A gp-fit at [0,100] overlapping a compile at
// [50,150] has its overlap booked to the gp-fit, journalled first, on every
// call; the sweep broke that tie by map order.
func TestAnalyzeOneJournalOneReport(t *testing.T) {
	events := []obs.Event{
		{Seq: 1, TimeNS: 0, Type: "run-start"},
		{Seq: 2, TimeNS: 100, Type: "gp-fit", Fields: map[string]any{"wall_ns": int64(100)}},
		{Seq: 3, TimeNS: 150, Type: "compile", Fields: map[string]any{"wall_ns": int64(100), "end_ns": int64(150)}},
		{Seq: 4, TimeNS: 150, Type: "run-end"},
	}
	want := []PhaseTotal{
		{Phase: PhaseCompile, ElapsedNS: 50, CPUNS: 100, Events: 1},
		{Phase: PhaseMeasure},
		{Phase: PhaseGPFit, ElapsedNS: 100, CPUNS: 100, Events: 1},
		{Phase: PhaseAcq}, {Phase: PhaseOther},
	}
	for i := 0; i < 200; i++ {
		r := Analyze(events)
		if r.WallNS != 150 || !slices.Equal(r.Phases, want) {
			t.Fatalf("call %d: wall %d, phases %+v; want 150, %+v", i, r.WallNS, r.Phases, want)
		}
	}
}
