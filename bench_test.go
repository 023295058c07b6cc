// Package repro's top-level benchmarks regenerate each table and figure of
// the paper at reduced scale (one tuning run per iteration; each iteration
// takes on the order of seconds, so b.N stays small under the default
// -benchtime). For paper-scale numbers use:
//
//	go run ./cmd/experiments -run <id> -budget 100 -repeats 3
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// benchConfig is deliberately tiny so `go test -bench=.` completes on a
// laptop core; the printed rows still exhibit the paper's shapes.
func benchConfig() experiments.Config {
	c := experiments.DefaultConfig(io.Discard)
	c.Budget = 10
	c.Scale = 0.25
	c.Benchmarks = []string{"telecom_gsm"}
	return c
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 5 (the IPDPS paper's evaluation) ---

func BenchmarkTable5_1(b *testing.B)   { runExperiment(b, "tab5.1") }
func BenchmarkTable5_2(b *testing.B)   { runExperiment(b, "tab5.2") }
func BenchmarkTable5_3(b *testing.B)   { runExperiment(b, "tab5.3") }
func BenchmarkTable5_4(b *testing.B)   { runExperiment(b, "tab5.4") }
func BenchmarkTable5_5(b *testing.B)   { runExperiment(b, "tab5.5") }
func BenchmarkFigure5_1(b *testing.B)  { runExperiment(b, "fig5.1") }
func BenchmarkFigure5_6(b *testing.B)  { runExperiment(b, "fig5.6") }
func BenchmarkFigure5_7(b *testing.B)  { runExperiment(b, "fig5.7") }
func BenchmarkFigure5_8(b *testing.B)  { runExperiment(b, "fig5.8") }
func BenchmarkFigure5_9(b *testing.B)  { runExperiment(b, "fig5.9") }
func BenchmarkFigure5_10(b *testing.B) { runExperiment(b, "fig5.10") }
func BenchmarkFigure5_11(b *testing.B) { runExperiment(b, "fig5.11") }
func BenchmarkFigure5_12(b *testing.B) { runExperiment(b, "fig5.12") }

// BenchmarkAdaptiveBudget regenerates the §5.5 adaptive-allocation study.
func BenchmarkAdaptiveBudget(b *testing.B) {
	e := experiments.ByID("adaptive")
	cfg := benchConfig()
	cfg.Budget = 12
	cfg.Benchmarks = []string{"505.mcf_r"}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// manyModuleApp models the shape where the evaluation engine pays off: a
// large application of ~50 translation units where one kernel module owns
// the runtime and the rest are cold. Without the compiled-module cache every
// runtime measurement re-runs the pass pipeline over all the cold units.
func manyModuleApp() *bench.Benchmark {
	kinds := []irgen.KernelKind{
		irgen.DotProduct, irgen.FIR, irgen.Stencil, irgen.CRC, irgen.Histogram,
		irgen.MinMaxReduce, irgen.StateMachine, irgen.CompareBlocks, irgen.CopyFill,
		irgen.FloatNorm, irgen.Polynomial, irgen.PrefixSum,
	}
	specs := []irgen.ModuleSpec{
		{Name: "core_kern", Kernels: []irgen.KernelSpec{
			{Kind: irgen.DotProduct, Size: 64, Reps: 12, Unroll: 4, ExitPred: ir.CmpSLT},
		}},
	}
	for i := 0; i < 47; i++ {
		var kern []irgen.KernelSpec
		for j := 0; j < 3; j++ {
			kern = append(kern, irgen.KernelSpec{
				Kind: kinds[(i*3+j)%len(kinds)], Size: 16, Reps: 1, ExitPred: ir.CmpSLT,
			})
		}
		specs = append(specs, irgen.ModuleSpec{Name: fmt.Sprintf("unit%02d", i), Kernels: kern})
	}
	return &bench.Benchmark{Name: "manymod", Suite: "spec", Specs: specs}
}

// BenchmarkTuner compares the propose+measure loop before and after the
// evaluation engine: the serial, uncached configuration (the pre-engine
// behaviour) versus the pooled, memoised one. Both produce bit-identical
// tuning results; only wall clock differs. Run with e.g.:
//
//	go test -bench BenchmarkTuner -benchtime 3x
func BenchmarkTuner(b *testing.B) {
	app := manyModuleApp()
	for _, cfg := range []struct {
		name     string
		workers  int
		cacheCap int
	}{
		{"serial-nocache", 1, -1},
		{"parallel-cached", 0, 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev, err := bench.NewEvaluator(app, bench.ARM(), int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				ev.CacheCap = cfg.cacheCap
				opts := core.DefaultOptions()
				opts.Budget = 12
				opts.HotCoverage = 0.1 // tune the dominant kernel module only
				opts.Workers = cfg.workers
				res, err := core.NewTuner(ev.Task(), opts, int64(i+1)).Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Breakdown.Counters.Get("cache_hits")), "cache-hits")
				b.ReportMetric(float64(res.Breakdown.Compiles), "compiles")
			}
		})
	}
}

// --- Chapter 4 substrate (AIBO, TMLR) ---

func BenchmarkFigure4_3(b *testing.B)  { runExperiment(b, "fig4.3") }
func BenchmarkFigure4_4(b *testing.B)  { runExperiment(b, "fig4.4") }
func BenchmarkFigure4_5(b *testing.B)  { runExperiment(b, "fig4.5") }
func BenchmarkFigure4_7(b *testing.B)  { runExperiment(b, "fig4.7") }
func BenchmarkFigure4_15(b *testing.B) { runExperiment(b, "fig4.15") }
func BenchmarkTable4_2(b *testing.B)   { runExperiment(b, "tab4.2") }
