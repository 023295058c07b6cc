// Package analyze turns saved (or still-growing) run journals into answers:
// where did the wall time go, did the caches pay off, is the run converging,
// and are two runs canonically the same search.
//
// The package is the read side of internal/obs. It consumes the JSONL event
// stream the Recorder emits and gives three views of one run:
//
//   - per-phase wall-time and CPU attribution,
//   - cache-effectiveness and convergence-curve reports,
//   - a Chrome trace-event export that opens directly in ui.perfetto.dev.
//
// All three read one streaming timeline (timeline.go) that places every
// timed event once and books the run's elapsed time over the phases in a
// single pass. It uses only the "_ns" timing fields, which Canonicalize
// strips: analysing a journal can therefore never change its canonical
// content, and the same journal analysed twice (or analysed live and then
// offline) yields the same phase shares. The Analyzer is a streaming
// consumer — it works as an obs.Sink over a live run exactly as it works
// over a file — which is what lets the serve /summary endpoint report phase
// attribution for running jobs. It is also the only reader that turns events
// into /metrics series (NewMetricsSink), so the registry and the offline
// report agree by construction.
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
	// PhaseAcq: acquisition maximisation, minus the compile fan-out nested
	// inside it (same convention as Fig 5.12).
	PhaseAcq Phase = "acquisition"
	// PhaseOther: journalled run time not covered by any timed event
	// (setup, feature extraction, bookkeeping between events).
	PhaseOther Phase = "other"
)

// Phases lists every phase in report order.
var Phases = []Phase{PhaseCompile, PhaseMeasure, PhaseGPFit, PhaseAcq, PhaseOther}

// PhaseTotal is one row of the phase attribution.
type PhaseTotal struct {
	Phase Phase `json:"phase"`
	// ElapsedNS is the run-timeline time booked to the phase: a compile
	// fan-out counts once however many workers ran it, and acquisition
	// keeps only what its nested fan-out left. The
	// ElapsedNS of all phases (including "other") partition the run, so
	// they always sum to WallNS exactly.
	ElapsedNS int64 `json:"elapsed_ns"`
	// CPUNS is the sum of individual event wall times for compile, measure
	// and gp-fit: with parallel compile workers it exceeds ElapsedNS, and
	// CPUNS/ElapsedNS is the phase's effective parallelism. Acquisition
	// runs on the tuner goroutine alone, so its CPUNS is its ElapsedNS.
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
// are nanoseconds on the run timeline (monotonic across resume
// restarts: each process's recorder clock is spliced onto the previous one).
type Report struct {
	Runs     int  `json:"runs"`
	Events   int  `json:"events"`
	Complete bool `json:"complete"` // the last run has its run-end event

	WallNS int64        `json:"wall_ns"`
	Phases []PhaseTotal `json:"phases"`

	Iterations int `json:"iterations"`
	Compiles   int `json:"compiles"`
	// CandidateCompiles: the compiles after each run's -O3 baselines (which
	// precede its first new-incumbent), the run-ends' "compilations".
	CandidateCompiles int            `json:"candidate_compiles"`
	Measurements      int            `json:"measurements"` // budget-consuming (ok, not reused)
	Resumes           int            `json:"resumes"`
	GPAppends         int            `json:"gp_appends"`                // gp-fit events that appended
	CandidateDups     int            `json:"candidate_dups"`            // acq-max dups: candidates with an observed program's statistics
	FleetIncidents    map[string]int `json:"fleet_incidents,omitempty"` // fleet-incident events by kind

	// BestSpeedup is the best incumbent a new-incumbent or resume event
	// reported.
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

// Analyzer is the streaming journal consumer. Feed events in journal order
// (it is an obs.Sink, so it can be multiplexed onto a live run) and call
// Report at any point — including mid-run — for a consistent snapshot.
type Analyzer struct {
	tl       timeline
	report   Report
	counters map[string]obs.CounterRow
	// baselines is set from a run-start to the run's first new-incumbent:
	// the compiles in between are the -O3 baselines.
	baselines bool
	series    *series // registered by NewMetricsSink, unregistered otherwise
}

// NewAnalyzer returns an empty streaming analyzer.
func NewAnalyzer() *Analyzer { return NewMetricsSink(nil) }

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

// Feed consumes one event.
func (a *Analyzer) Feed(e *obs.Event) {
	s := a.series
	if p := a.tl.feed(e); p.phase != "" && p.cpuNS != 0 {
		s.phase[p.phase].Add(time.Duration(p.cpuNS).Seconds())
	}
	r := &a.report
	r.Events++

	f := e.Fields
	switch e.Type {
	case "run-start":
		r.Runs++
		r.Complete = false
		r.Config = f
		a.baselines = true
		s.newRun()
	case "run-end":
		r.Complete = true
		r.Final = f
		r.PassProfile = passProfile(f)
	case "iteration":
		r.Iterations++
	case "compile":
		r.Compiles++
		if !a.baselines {
			r.CandidateCompiles++
			s.compiles.Inc()
		}
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
			s.saved.Inc()
		}
		if ok && !reused {
			r.Measurements++
			s.measurements.Inc()
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
		a.baselines = false
		sp := obs.FieldFloat(f, "speedup")
		r.Incumbents = append(r.Incumbents, Step{
			Measurement: int(obs.FieldFloat(f, "measurement")),
			Speedup:     sp, Best: sp,
			Module: fieldString(f, "module"),
		})
		a.incumbent(sp)
	case "gp-fit":
		if obs.FieldBool(f, "appended") {
			r.GPAppends++
		}
	case "acq-max":
		n := int(obs.FieldFloat(f, "dups"))
		r.CandidateDups += n
		s.dups.Add(int64(n))
	case "fleet-incident":
		kind := fieldString(f, "kind")
		if r.FleetIncidents == nil {
			r.FleetIncidents = map[string]int{}
		}
		r.FleetIncidents[kind]++
		if c := s.incidents[kind]; c != nil {
			c.Inc()
		}
	case "resume":
		r.Resumes++
		a.incumbent(obs.FieldFloat(f, "best"))
	default:
		a.feedStats(e)
	}
}

// incumbent takes the incumbent speedup a new-incumbent or resume event
// reported.
func (a *Analyzer) incumbent(sp float64) {
	a.series.incumbent.Set(sp)
	a.report.BestSpeedup = max(a.report.BestSpeedup, sp)
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

// feedStats folds a stats event into the counter table (cumulative counters,
// latest wins) and books its rows into the sink's registry.
func (a *Analyzer) feedStats(e *obs.Event) {
	if e.Type != "stats" {
		return
	}
	for k := range e.Fields {
		name, env := strings.CutPrefix(k, "env_")
		v := int64(obs.FieldFloat(e.Fields, k))
		a.counters[name] = obs.CounterRow{Name: name, Value: v, Env: env}
		a.series.row(k, env, v)
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

// Report snapshots the analysis. Safe to call repeatedly while streaming:
// a snapshot books the open compile fan-out as if it closed now and leaves
// the timeline as it is.
func (a *Analyzer) Report() *Report {
	r := a.report // copy: the timeline- and table-derived fields are filled per call
	r.Counters = make(obs.CounterSet, 0, len(a.counters))
	for _, c := range a.counters {
		r.Counters = append(r.Counters, c)
	}
	sort.Slice(r.Counters, func(i, j int) bool { return r.Counters[i].Name < r.Counters[j].Name })
	r.WallNS, r.Phases = a.tl.wallNS(), a.tl.phases()
	return &r
}

func fieldString(f map[string]any, key string) string {
	s, _ := f[key].(string)
	return s
}
