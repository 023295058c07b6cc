package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/evalpool"
	"repro/internal/ir"
	"repro/internal/passes"
)

// CompileSpec names one candidate compilation: a module rebuilt under a pass
// sequence. It is the only description of that unit of work — the tuner
// builds it, RunGroups executes it, and its JSON form is the fleet wire
// format (fleet.BatchRequest carries a slice of these).
type CompileSpec struct {
	Module string `json:"module"`
	// Seq is the pass sequence; nil means the -O3 baseline pipeline.
	Seq []string `json:"seq,omitempty"`
}

// CompileOutcome is the result of one CompileSpec, in process and on the
// wire (fleet.BatchResult). Feature and Stats are computed where the compile
// ran, so remote execution never has to serialize IR modules; feature values
// are float64 and survive a JSON round-trip bit-for-bit, which is what lets
// a fleet journal stay byte-identical to a single-process one.
type CompileOutcome struct {
	Ok      bool               `json:"ok"`
	Err     string             `json:"err,omitempty"` // compile error message when !Ok
	Feature map[string]float64 `json:"feature,omitempty"`
	Stats   passes.Stats       `json:"stats,omitempty"`
	Wall    time.Duration      `json:"wall_ns"`
}

// EvalIncident describes one dispatch-level anomaly an evaluation backend
// observed while executing a fan-out: retries, steals, discarded duplicate
// results, quarantines, local fallbacks. The tuner journals incidents
// serially after the fan-out barrier (see obs.Recorder.FleetIncident), so a
// healthy fixed fleet — which reports none — keeps its canonical journal
// byte-identical to a single-process run.
type EvalIncident struct {
	Kind    string // "retry" | "steal" | "duplicate-discarded" | "quarantine" | "local-fallback"
	Runner  string
	Module  string
	Attempt int
}

// EvalBackend is optionally implemented by Tasks that decide for themselves
// where candidate compilations execute (the fleet's JobBinding dispatches
// them to remote runner processes). For any other Task the tuner calls
// RunGroups on its own evalpool. Implementations must honour the grouping
// contract: indices inside one group run serially in order (prefix-siblings
// resume from each other's snapshots), distinct groups may run concurrently,
// and out[i] is written by exactly one executor.
type EvalBackend interface {
	// CompileGroups executes every spec, writing outcomes into out (same
	// length as specs) and returning any dispatch incidents. Cancellation is
	// graceful: unexecuted specs keep Ok == false and the caller checks its
	// own context.
	CompileGroups(ctx context.Context, specs []CompileSpec, groups [][]int, out []CompileOutcome) []EvalIncident
	// EnsureLocal makes (module, seq) compilable as a cache hit on the
	// process that runs measurements: the fleet backend warm-compiles the
	// selected candidate on the coordinator (uncounted) so the measure
	// path's dataset-0 compile hits exactly as it does single-process.
	EnsureLocal(ctx context.Context, module string, seq []string) error
}

// ExtractFeatures builds the model's feature map for one compiled module.
// A nil seq is normalised to the -O3 pipeline first (it only matters for
// FeatRawSeq, where the sequence itself is the representation).
func ExtractFeatures(kind FeatureKind, m *ir.Module, st passes.Stats, seq []string) map[string]float64 {
	if seq == nil {
		seq = passes.O3Sequence()
	}
	return extract(kind, m, st, seq)
}

// RunGroups is the one loop that executes a grouped batch: every spec is
// compiled through task and reduced to its feature map in place, serially
// inside a group and across pool's workers between groups, each outcome
// written to its own slot of out (same length as specs). The in-process
// tuner, the fleet runner's batch handler and the coordinator's local
// fallback all run batches through here, so they cannot disagree. A
// cancelled ctx leaves unexecuted specs !Ok and is returned as the error.
func RunGroups(ctx context.Context, pool *evalpool.Pool, task Task, feat FeatureKind, specs []CompileSpec, groups [][]int, out []CompileOutcome) error {
	return pool.MapGroupsCtx(ctx, groups, func(i int) {
		s := specs[i]
		tc := time.Now()
		m, st, err := task.CompileModule(ctx, s.Module, s.Seq)
		out[i].Wall = time.Since(tc)
		if err != nil {
			out[i].Err = err.Error()
			return
		}
		out[i].Stats = st
		out[i].Feature = ExtractFeatures(feat, m, st, s.Seq)
		out[i].Ok = true
	})
}

// compileGroups runs one fan-out where the Task says it runs (EvalBackend)
// or on the tuner's own pool, journalling any dispatch incidents.
func (t *Tuner) compileGroups(ctx context.Context, specs []CompileSpec, groups [][]int, out []CompileOutcome) {
	if b, ok := t.task.(EvalBackend); ok {
		t.journalIncidents(b.CompileGroups(ctx, specs, groups, out))
		return
	}
	// A cancelled fan-out leaves slots !Ok; callers check their own context.
	_ = RunGroups(ctx, t.pool, t.task, t.opts.Feature, specs, groups, out)
}

// compileOne routes a single compilation through compileGroups (a one-spec
// batch) and surfaces the outcome's error as a Go error for the serial call
// sites (greedy probes, selected-candidate compiles).
func (t *Tuner) compileOne(module string, seq []string) (CompileOutcome, error) {
	specs := []CompileSpec{{Module: module, Seq: seq}}
	out := make([]CompileOutcome, 1)
	t.compileGroups(t.runCtx(), specs, [][]int{{0}}, out)
	if !out[0].Ok {
		msg := out[0].Err
		if msg == "" {
			msg = "compile failed"
		}
		return out[0], errors.New(msg)
	}
	return out[0], nil
}

// journalIncidents emits dispatch incidents serially on the tuner
// goroutine, sorted so concurrent dispatch cannot reorder them run to run.
func (t *Tuner) journalIncidents(incs []EvalIncident) {
	if len(incs) == 0 || !t.rec.Enabled() {
		return
	}
	sort.Slice(incs, func(i, j int) bool {
		a, b := incs[i], incs[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Runner < b.Runner
	})
	for _, in := range incs {
		t.rec.FleetIncident(t.curSpan, in.Kind, in.Runner, in.Module, in.Attempt)
	}
}
