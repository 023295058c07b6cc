// Package analyze turns saved (or still-growing) run journals into answers:
// where did the wall time go, did the caches pay off, is the run converging,
// and are two runs canonically the same search.
//
// The package is the read side of internal/obs. It consumes the JSONL event
// stream the Recorder emits and reconstructs three views of one run:
//
//   - a span tree (run → iterations → compile/measure/... leaf events) with
//     per-phase wall-time attribution and a critical-path estimate,
//   - cache-effectiveness and convergence-curve reports,
//   - a Chrome trace-event export that opens directly in ui.perfetto.dev.
//
// Attribution uses only the "_ns" timing fields, which Canonicalize strips:
// analysing a journal can therefore never change its canonical content, and
// the same journal analysed twice (or analysed live and then offline) yields
// the same phase shares. The Analyzer is a streaming consumer — it works as
// an obs.Sink over a live run exactly as it works over a file — which is what
// lets the serve endpoints report phase attribution for running jobs and the
// citroen_phase_seconds metrics stay consistent with the offline report by
// construction: both are fed from the one Attribution state machine.
package analyze

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Phase is one of the fixed wall-time buckets of a tuning run.
type Phase string

const (
	// PhaseCompile: candidate and baseline pipeline runs (compile events).
	PhaseCompile Phase = "compile"
	// PhaseMeasure: runtime measurements on the simulated machine.
	PhaseMeasure Phase = "measure"
	// PhaseGPFit: surrogate refits and incremental appends.
	PhaseGPFit Phase = "gp-fit"
	// PhaseAcq: acquisition maximisation, minus the compile time nested
	// inside the candidate fan-out (same convention as Fig 5.12).
	PhaseAcq Phase = "acquisition"
	// PhasePlanner: statistics-connectivity planner probe+build+plan steps.
	PhasePlanner Phase = "planner"
	// PhaseOther: journalled run time not covered by any timed event
	// (setup, feature extraction, bookkeeping between events).
	PhaseOther Phase = "other"
)

// Phases lists every phase in report order.
var Phases = []Phase{PhaseCompile, PhaseMeasure, PhaseGPFit, PhaseAcq, PhasePlanner, PhaseOther}

// Attribution is the shared event→phase state machine. It is deliberately
// tiny: the serve endpoints, the offline report and the Prometheus
// citroen_phase_seconds series all feed events through an Attribution, so
// they cannot disagree about what counts as which phase.
//
// The only stateful rule is the acquisition/compile overlap: the tuner's
// acq-max wall time covers the candidate compile fan-out, so compile wall
// observed since the last acq-max is subtracted from the acquisition share
// (clamped at zero), the convention of Fig 5.12.
type Attribution struct {
	pendingCompileNS int64
}

// Feed classifies one event, returning its phase and the CPU nanoseconds it
// contributes. ok is false for events that carry no wall time.
func (a *Attribution) Feed(e *obs.Event) (phase Phase, cpuNS int64, ok bool) {
	wall := int64(obs.FieldFloat(e.Fields, "wall_ns"))
	switch e.Type {
	case "compile":
		a.pendingCompileNS += wall
		return PhaseCompile, wall, true
	case "measure":
		return PhaseMeasure, wall, true
	case "gp-fit":
		return PhaseGPFit, wall, true
	case "planner-build":
		return PhasePlanner, wall, true
	case "acq-max":
		acq := wall - a.pendingCompileNS
		a.pendingCompileNS = 0
		if acq < 0 {
			acq = 0
		}
		return PhaseAcq, acq, true
	}
	return "", 0, false
}

// interval is one timed event on the run's adjusted timeline.
type interval struct {
	startNS, endNS int64
	phase          Phase
}

// PhaseTotal is one row of the phase attribution.
type PhaseTotal struct {
	Phase Phase `json:"phase"`
	// ElapsedNS is wall-clock time on the run timeline attributed to the
	// phase by the interval sweep: overlapping intervals are merged, and
	// segments covered by both a leaf phase and the enclosing acquisition
	// interval count as the leaf. The ElapsedNS of all phases (including
	// "other") partition the run, so they always sum to WallNS exactly.
	ElapsedNS int64 `json:"elapsed_ns"`
	// CPUNS is the sum of individual event wall times: with parallel
	// compile workers it exceeds ElapsedNS, and CPUNS/ElapsedNS is the
	// phase's effective parallelism.
	CPUNS int64 `json:"cpu_ns"`
	// Events is the number of timed events attributed to the phase.
	Events int `json:"events"`
}

// Step is one convergence-curve point.
type Step struct {
	Measurement int     `json:"measurement"`
	Speedup     float64 `json:"speedup"`
	Best        float64 `json:"best"`
	Module      string  `json:"module,omitempty"`
}

// ModuleReport aggregates per-module activity.
type ModuleReport struct {
	Compiles     int     `json:"compiles"`
	CompileNS    int64   `json:"compile_ns"`
	Measurements int     `json:"measurements"`
	BestSpeedup  float64 `json:"best_speedup"`
	Curve        []Step  `json:"curve,omitempty"`
}

// PassRow is one row of the per-pass profile a profiled run records in its
// run-end event (the costliest passes, in the order the tuner ranked them).
type PassRow struct {
	Pass        string `json:"pass"`
	Invocations int    `json:"invocations"`
	Fired       int    `json:"fired"`
	WallNS      int64  `json:"wall_ns"`
	DeltaTotal  int    `json:"delta_total"`
}

// Report is everything the analyzer can say about a journal. All durations
// are nanoseconds on the run timeline (monotonic across checkpoint/resume
// restarts: each process's recorder clock is spliced onto the previous one).
type Report struct {
	Runs     int  `json:"runs"`
	Events   int  `json:"events"`
	Complete bool `json:"complete"` // the last run has its run-end event

	WallNS int64 `json:"wall_ns"`
	// CriticalPathNS estimates the serial-equivalent time of the run's span
	// tree: for each batch of overlapping compile intervals (a parallel
	// fan-out) only the longest member counts; everything else is serial on
	// the tuner goroutine and counts as-is.
	CriticalPathNS int64        `json:"critical_path_ns"`
	Phases         []PhaseTotal `json:"phases"`

	Iterations   int `json:"iterations"`
	Compiles     int `json:"compiles"`
	Measurements int `json:"measurements"` // budget-consuming (ok, not reused)
	Checkpoints  int `json:"checkpoints"`
	Resumes      int `json:"resumes"`

	BestSpeedup float64                  `json:"best_speedup"`
	Incumbents  []Step                   `json:"incumbents,omitempty"`
	Curve       []Step                   `json:"curve,omitempty"`
	Modules     map[string]*ModuleReport `json:"modules,omitempty"`
	// Counters is the latest value of every counter the journal's stats
	// events carry, by name (a canonicalised journal has no Env rows).
	Counters obs.CounterSet `json:"counters"`
	// ReusedMeasurements counts duplicate-statistics candidates whose
	// profiled value was reused without consuming budget.
	ReusedMeasurements int `json:"reused_measurements"`

	// Config/Final mirror the run-start / run-end fields of the last run;
	// PassProfile is that run-end's pass_profile table, when it has one.
	Config      map[string]any `json:"config,omitempty"`
	Final       map[string]any `json:"final,omitempty"`
	PassProfile []PassRow      `json:"pass_profile,omitempty"`
}

// PhaseSeconds returns one phase's elapsed share in seconds.
func (r *Report) PhaseSeconds(p Phase) float64 {
	for _, pt := range r.Phases {
		if pt.Phase == p {
			return time.Duration(pt.ElapsedNS).Seconds()
		}
	}
	return 0
}

// Analyzer is the streaming journal consumer. Feed events in journal order
// (it is an obs.Sink, so it can be multiplexed onto a live run) and call
// Report at any point — including mid-run — for a consistent snapshot.
type Analyzer struct {
	att       Attribution
	intervals []interval
	events    []obs.Event // retained for tree/trace reuse via Events()

	// timeline splicing across process restarts (TimeNS resets to ~0 when a
	// resumed job re-creates its recorder).
	offsetNS int64
	lastNS   int64
	firstNS  int64
	haveTime bool

	report   Report
	cpu      map[Phase]int64
	evs      map[Phase]int
	counters map[string]obs.CounterRow
}

// NewAnalyzer returns an empty streaming analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{cpu: map[Phase]int64{}, evs: map[Phase]int{}, counters: map[string]obs.CounterRow{}}
}

// Analyze runs a complete event slice through a fresh analyzer.
func Analyze(events []obs.Event) *Report {
	a := NewAnalyzer()
	for i := range events {
		a.Feed(&events[i])
	}
	return a.Report()
}

// Emit implements obs.Sink so an Analyzer can watch a live run.
func (a *Analyzer) Emit(e *obs.Event) { a.Feed(e) }

// adjust splices the event onto the monotonic run timeline.
func (a *Analyzer) adjust(raw int64) int64 {
	t := raw + a.offsetNS
	if t < a.lastNS {
		// The recorder clock restarted (checkpoint/resume in a new process):
		// splice the new epoch onto the end of the old one.
		a.offsetNS = a.lastNS
		t = raw + a.offsetNS
	}
	a.lastNS = t
	if !a.haveTime {
		a.firstNS = t
		a.haveTime = true
	}
	return t
}

// Feed consumes one event.
func (a *Analyzer) Feed(e *obs.Event) {
	t := a.adjust(e.TimeNS)
	a.events = append(a.events, *e)
	r := &a.report
	r.Events++

	if phase, cpu, ok := a.att.Feed(e); ok {
		a.cpu[phase] += cpu
		a.evs[phase]++
		// Events are journalled at operation end, so the interval is
		// [t - wall, t]. The acquisition interval spans its full wall (the
		// sweep carves the nested compile segments out by priority), while
		// its CPU share is the compile-free remainder from Attribution.
		start := t - int64(obs.FieldFloat(e.Fields, "wall_ns"))
		if start < a.firstNS {
			start = a.firstNS
		}
		if start > t {
			start = t
		}
		a.intervals = append(a.intervals, interval{startNS: start, endNS: t, phase: phase})
	}

	f := e.Fields
	switch e.Type {
	case "run-start":
		r.Runs++
		r.Complete = false
		r.Config = f
	case "run-end":
		r.Complete = true
		r.Final = f
		r.PassProfile = passProfile(f)
	case "iteration":
		r.Iterations++
	case "compile":
		r.Compiles++
		m := a.module(fieldString(f, "module"))
		if m != nil {
			m.Compiles++
			m.CompileNS += int64(obs.FieldFloat(f, "wall_ns"))
		}
	case "measure":
		ok := obs.FieldBool(f, "ok")
		reused := obs.FieldBool(f, "reused")
		if reused {
			r.ReusedMeasurements++
		}
		if ok && !reused {
			r.Measurements++
			step := Step{
				Measurement: int(obs.FieldFloat(f, "measurement")),
				Speedup:     obs.FieldFloat(f, "speedup"),
				Best:        obs.FieldFloat(f, "best"),
				Module:      fieldString(f, "module"),
			}
			r.Curve = append(r.Curve, step)
			if m := a.module(step.Module); m != nil {
				m.Measurements++
				if step.Speedup > m.BestSpeedup {
					m.BestSpeedup = step.Speedup
				}
				m.Curve = append(m.Curve, step)
			}
		}
	case "new-incumbent":
		sp := obs.FieldFloat(f, "speedup")
		r.Incumbents = append(r.Incumbents, Step{
			Measurement: int(obs.FieldFloat(f, "measurement")),
			Speedup:     sp, Best: sp,
			Module: fieldString(f, "module"),
		})
		if sp > r.BestSpeedup {
			r.BestSpeedup = sp
		}
	case "checkpoint":
		r.Checkpoints++
	case "resume":
		r.Resumes++
	default:
		a.feedStats(e)
	}
}

// passProfile decodes a run-end event's pass_profile rows.
func passProfile(f map[string]any) []PassRow {
	rows, _ := f["pass_profile"].([]any)
	var out []PassRow
	for _, r := range rows {
		m, ok := r.(map[string]any)
		if !ok {
			continue
		}
		out = append(out, PassRow{
			Pass:        fieldString(m, "pass"),
			Invocations: int(obs.FieldFloat(m, "invocations")),
			Fired:       int(obs.FieldFloat(m, "fired")),
			WallNS:      int64(obs.FieldFloat(m, "wall_ns")),
			DeltaTotal:  int(obs.FieldFloat(m, "delta_total")),
		})
	}
	return out
}

// feedStats folds a stats event into the counter table: cumulative counters,
// latest wins.
func (a *Analyzer) feedStats(e *obs.Event) {
	if e.Type != "stats" {
		return
	}
	for k := range e.Fields {
		name, env := strings.CutPrefix(k, "env_")
		a.counters[name] = obs.CounterRow{Name: name, Value: int64(obs.FieldFloat(e.Fields, k)), Env: env}
	}
}

// module returns (creating) the per-module aggregate; "" (whole-program
// events like the initial incumbent) maps to nil.
func (a *Analyzer) module(name string) *ModuleReport {
	if name == "" {
		return nil
	}
	if a.report.Modules == nil {
		a.report.Modules = map[string]*ModuleReport{}
	}
	m := a.report.Modules[name]
	if m == nil {
		m = &ModuleReport{}
		a.report.Modules[name] = m
	}
	return m
}

// Events returns the events consumed so far (journal order).
func (a *Analyzer) Events() []obs.Event { return a.events }

// Report snapshots the analysis. Safe to call repeatedly while streaming;
// each call recomputes the interval sweep over the events seen so far.
func (a *Analyzer) Report() *Report {
	r := a.report // copy: sweep- and table-derived fields are filled per call
	r.Counters = make(obs.CounterSet, 0, len(a.counters))
	for _, c := range a.counters {
		r.Counters = append(r.Counters, c)
	}
	sort.Slice(r.Counters, func(i, j int) bool { return r.Counters[i].Name < r.Counters[j].Name })
	if a.haveTime {
		r.WallNS = a.lastNS - a.firstNS
	}
	elapsed, critical := sweep(a.intervals, a.firstNS, a.lastNS)
	r.Phases = make([]PhaseTotal, 0, len(Phases))
	var covered int64
	for _, p := range Phases {
		if p == PhaseOther {
			continue
		}
		covered += elapsed[p]
		r.Phases = append(r.Phases, PhaseTotal{
			Phase: p, ElapsedNS: elapsed[p], CPUNS: a.cpu[p], Events: a.evs[p],
		})
	}
	other := r.WallNS - covered
	if other < 0 {
		other = 0
	}
	r.Phases = append(r.Phases, PhaseTotal{Phase: PhaseOther, ElapsedNS: other})
	r.CriticalPathNS = critical + other
	return &r
}

// sweep partitions the [first,last] timeline over the phases: at every
// elementary segment the highest-priority covering interval wins, leaf
// phases beating the composite acquisition interval that nests them. It also
// returns the critical-path contribution of the covered timeline: each batch
// of transitively-overlapping compile intervals contributes only its longest
// member (the fan-out barrier waits for the slowest worker), every other
// phase contributes its merged elapsed time.
func sweep(ivs []interval, first, last int64) (elapsed map[Phase]int64, criticalNS int64) {
	elapsed = map[Phase]int64{}
	if len(ivs) == 0 {
		return elapsed, 0
	}
	type edge struct {
		t     int64
		open  bool
		phase Phase
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.endNS <= iv.startNS {
			continue
		}
		edges = append(edges, edge{iv.startNS, true, iv.phase}, edge{iv.endNS, false, iv.phase})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		// Close before open at equal times so zero-length overlap is not
		// double-counted.
		return !edges[i].open && edges[j].open
	})
	// prio: leaf phases beat the acquisition envelope that nests them.
	prio := map[Phase]int{PhaseCompile: 4, PhaseMeasure: 4, PhaseGPFit: 4, PhasePlanner: 4, PhaseAcq: 1}
	depth := map[Phase]int{}
	best := func() (Phase, bool) {
		var top Phase
		topP := 0
		for p, d := range depth {
			if d > 0 && prio[p] > topP {
				top, topP = p, prio[p]
			}
		}
		return top, topP > 0
	}
	if len(edges) == 0 { // only zero-length intervals: a canonicalised journal
		return elapsed, 0
	}
	prev := edges[0].t
	for _, ed := range edges {
		if ed.t > prev {
			if p, ok := best(); ok {
				elapsed[p] += ed.t - prev
			}
			prev = ed.t
		}
		if ed.open {
			depth[ed.phase]++
		} else {
			depth[ed.phase]--
		}
	}

	// Critical path: group overlapping compile intervals into fan-out
	// batches; each batch contributes max duration.
	var compiles []interval
	for _, iv := range ivs {
		if iv.phase == PhaseCompile && iv.endNS > iv.startNS {
			compiles = append(compiles, iv)
		}
	}
	sort.Slice(compiles, func(i, j int) bool { return compiles[i].startNS < compiles[j].startNS })
	var compileCritical int64
	for i := 0; i < len(compiles); {
		batchEnd := compiles[i].endNS
		var maxDur int64
		j := i
		for ; j < len(compiles) && compiles[j].startNS < batchEnd; j++ {
			if compiles[j].endNS > batchEnd {
				batchEnd = compiles[j].endNS
			}
			if d := compiles[j].endNS - compiles[j].startNS; d > maxDur {
				maxDur = d
			}
		}
		compileCritical += maxDur
		i = j
	}
	criticalNS = compileCritical
	for p, e := range elapsed {
		if p != PhaseCompile {
			criticalNS += e
		}
	}
	return elapsed, criticalNS
}

func fieldString(f map[string]any, key string) string {
	s, _ := f[key].(string)
	return s
}
