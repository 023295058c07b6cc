package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/ir"
	"repro/internal/numeric"
	"repro/internal/passes"
)

// CompileSpec names one candidate compilation: a module rebuilt under a pass
// sequence. It is the only description of that unit of work — the tuner
// builds it, RunSpecs executes it, and its JSON form is the fleet wire
// format (fleet.BatchRequest carries a slice of these).
type CompileSpec struct {
	Module string `json:"module"`
	// Seq is the pass sequence; nil means the -O3 baseline pipeline.
	Seq []string `json:"seq,omitempty"`
}

// CompileOutcome is the result of one CompileSpec, in process and on the
// wire (fleet.BatchResult). Feature is computed from the pipeline's
// statistics where the compile ran, so remote execution never has to
// serialize IR modules or the statistics themselves; feature values are
// float64 and survive a JSON round-trip bit-for-bit, which is what lets a
// fleet journal stay byte-identical to a single-process one.
type CompileOutcome struct {
	Ok      bool               `json:"ok"`
	Err     string             `json:"err,omitempty"` // compile error message when !Ok
	Feature map[string]float64 `json:"feature,omitempty"`
	Wall    time.Duration      `json:"wall_ns"`
	// End is when the compile finished on this process's clock (for a
	// remote compile: when its result arrived). It places the compile on
	// the run timeline (obs.Recorder.Compile) and is not sent on the wire.
	End time.Time `json:"-"`
}

// EvalIncident describes one dispatch-level anomaly an evaluation backend
// observed while executing a fan-out: retries, quarantines, local
// fallbacks. The tuner journals incidents serially after the fan-out
// barrier (see obs.Recorder.FleetIncident), so a healthy fixed fleet —
// which reports none — keeps its canonical journal byte-identical to a
// single-process run.
type EvalIncident struct {
	Kind    string // "retry" | "quarantine" | "local-fallback"
	Runner  string
	Module  string
	Attempt int
}

// EvalBackend is optionally implemented by Tasks that decide for themselves
// where candidate compilations execute (the fleet's JobBinding dispatches
// them to remote runner processes). For any other Task the tuner calls
// RunSpecs on its own workers.
type EvalBackend interface {
	// RunSpecs executes every spec, writing outcomes into out (same length
	// as specs) and returning any dispatch incidents. Cancellation is
	// graceful: unexecuted specs keep Ok == false and the caller checks its
	// own context.
	RunSpecs(ctx context.Context, specs []CompileSpec, out []CompileOutcome) []EvalIncident
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

// RunSpecs is the one loop that executes a batch of compiles: every spec is
// compiled through task and reduced to its feature map in place, the specs
// fanning out over up to workers goroutines (numeric.ParallelFor), each
// outcome written to its own slot of out (same length as specs). The
// in-process tuner, the fleet runner's batch handler and the coordinator's
// local fallback all run batches through here, so they cannot disagree. ctx
// is checked before every spec: a cancelled ctx leaves unexecuted specs !Ok
// and is returned as the error. Each compile runs under the pprof labels
// phase=compile and module=<name>, and its outcome records when it ended.
func RunSpecs(ctx context.Context, workers int, task Task, feat FeatureKind, specs []CompileSpec, out []CompileOutcome) error {
	numeric.ParallelFor(workers, len(specs), func(i int) {
		if ctx.Err() != nil {
			return
		}
		s := specs[i]
		pprof.Do(ctx, pprof.Labels("phase", "compile", "module", s.Module), func(ctx context.Context) {
			tc := time.Now()
			m, st, err := task.CompileModule(ctx, s.Module, s.Seq)
			out[i].End = time.Now()
			out[i].Wall = out[i].End.Sub(tc)
			if err != nil {
				out[i].Err = err.Error()
				return
			}
			out[i].Feature = ExtractFeatures(feat, m, st, s.Seq)
			out[i].Ok = true
		})
	})
	return ctx.Err()
}

// runSpecs runs one fan-out where the Task says it runs (EvalBackend) or on
// the tuner's own workers, journalling any dispatch incidents.
func (t *Tuner) runSpecs(ctx context.Context, specs []CompileSpec, out []CompileOutcome) {
	if b, ok := t.task.(EvalBackend); ok {
		t.journalIncidents(b.RunSpecs(ctx, specs, out))
		return
	}
	// A cancelled fan-out leaves slots !Ok; callers check their own context.
	_ = RunSpecs(ctx, t.workers, t.task, t.opts.Feature, specs, out)
}

// compileOne routes a single compilation through runSpecs (a one-spec
// batch) and surfaces the outcome's error as a Go error for the serial call
// site (selected-candidate compiles).
func (t *Tuner) compileOne(module string, seq []string) (CompileOutcome, error) {
	specs := []CompileSpec{{Module: module, Seq: seq}}
	out := make([]CompileOutcome, 1)
	t.runSpecs(t.runCtx(), specs, out)
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
