// Package core implements CITROEN (Chapter 5): Bayesian-optimisation-driven
// compiler phase ordering that models pass interactions through pass-related
// compilation statistics. Candidate pass sequences come from a portfolio of
// discrete heuristics (DES, sequence GA, random — the discrete AIBO
// initialisation); each candidate is compiled (cheap) to extract its
// statistics feature vector; a Gaussian-process cost model with a
// coverage-aware acquisition function picks the single candidate worth a
// runtime measurement; and for multi-module programs an adaptive scheme
// allocates the measurement budget across modules.
package core

import (
	"context"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/passes"
)

// Task abstracts the program being tuned (§5.3.6): how to compile one module
// under a pass sequence (returning the compiled IR and its statistics) and
// how to measure the whole program under per-module sequences. The bench
// package provides the standard implementation; examples/customtask shows a
// user-defined one.
//
// The compile and measure hooks take a context so long tuning runs are
// cancellable end to end: the tuner passes its run context down, and
// implementations doing real work (spawning compilers, running binaries)
// should abort promptly when it is cancelled. Implementations that cannot
// usefully interrupt may ignore it — the tuner also checks the context
// between steps.
type Task interface {
	// Modules lists the tunable compilation units.
	Modules() []string
	// CompileModule applies seq to a fresh copy of the module. nil seq means
	// the -O3 baseline pipeline. No execution happens. The tuner calls this
	// from its evaluation pool, so implementations must be safe for
	// concurrent use unless the tuner runs with Options.Workers == 1.
	CompileModule(ctx context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error)
	// Measure builds the program with the given per-module sequences
	// (missing entries = -O3), runs it with differential testing and returns
	// the measured time (lower is better).
	Measure(ctx context.Context, seqs map[string][]string) (float64, error)
	// BaselineTime is the -O3 measurement.
	BaselineTime() float64
	// HotModules returns the modules worth tuning, most expensive first,
	// covering at least the given fraction of runtime.
	HotModules(coverage float64) ([]string, error)
}

// CounterReporter is optionally implemented by Tasks whose evaluator accounts
// for its own work (caches, clones, the measurement engine). The tuner
// journals the set after every measurement when a journal sink is attached
// and copies it into Result.Breakdown at the end of a run.
type CounterReporter interface {
	// Counters returns the cumulative counter set.
	Counters() obs.CounterSet
}

// PassProfileReporter is optionally implemented by Tasks whose evaluator
// profiles individual pass invocations (wall time + statistics-counter
// deltas; see passes.Profile). The tuner copies the aggregated costs into
// Result.PassProfile and the journal's run-end event.
type PassProfileReporter interface {
	// PassProfile returns the aggregated per-pass costs in the deterministic
	// order of passes.Profile.Costs (nil when profiling is disabled).
	PassProfile() []passes.PassCost
}

// BenchTask adapts bench.Evaluator-like objects to Task. It is defined via
// small function fields so core does not import bench (avoiding a cycle
// with experiment helpers).
type BenchTask struct {
	ModulesFn  func() []string
	CompileFn  func(ctx context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error)
	MeasureFn  func(ctx context.Context, seqs map[string][]string) (float64, error)
	BaselineFn func() float64
	HotFn      func(coverage float64) ([]string, error)
	// CountersFn, when set, reports the evaluator's counter set (see
	// CounterReporter).
	CountersFn func() obs.CounterSet
	// PassProfileFn, when set, reports the evaluator's per-pass profile
	// (see PassProfileReporter).
	PassProfileFn func() []passes.PassCost
}

// Modules implements Task.
func (t *BenchTask) Modules() []string { return t.ModulesFn() }

// CompileModule implements Task.
func (t *BenchTask) CompileModule(ctx context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
	return t.CompileFn(ctx, mod, seq)
}

// Measure implements Task.
func (t *BenchTask) Measure(ctx context.Context, seqs map[string][]string) (float64, error) {
	return t.MeasureFn(ctx, seqs)
}

// BaselineTime implements Task.
func (t *BenchTask) BaselineTime() float64 { return t.BaselineFn() }

// HotModules implements Task.
func (t *BenchTask) HotModules(coverage float64) ([]string, error) { return t.HotFn(coverage) }

// Counters implements CounterReporter; without a CountersFn it reports no
// counters.
func (t *BenchTask) Counters() obs.CounterSet {
	if t.CountersFn == nil {
		return nil
	}
	return t.CountersFn()
}

// PassProfile implements PassProfileReporter; without a PassProfileFn it
// reports no profile.
func (t *BenchTask) PassProfile() []passes.PassCost {
	if t.PassProfileFn == nil {
		return nil
	}
	return t.PassProfileFn()
}
