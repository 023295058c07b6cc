package bench

import (
	"context"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/passes"
)

// Task adapts the evaluator to the core.Task interface that CITROEN and the
// baseline tuners drive. The tuner's run context flows into the evaluator's
// ctx-aware entry points, so cancelling a run aborts queued compiles and
// in-progress measurement cycles.
func (ev *Evaluator) Task() core.Task {
	return &core.BenchTask{
		ModulesFn: ev.Modules,
		CompileFn: func(ctx context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
			return ev.CompileModuleCtx(ctx, mod, seq)
		},
		MeasureFn: func(ctx context.Context, seqs map[string][]string) (float64, error) {
			t, _, err := ev.MeasureCtx(ctx, seqs)
			return t, err
		},
		BaselineFn: ev.O3Time,
		HotFn: func(coverage float64) ([]string, error) {
			hot, _, err := ev.HotModules(coverage)
			return hot, err
		},
		CountersFn:    ev.Counters,
		PassProfileFn: ev.PassProfile,
	}
}
