package ir_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

var loopSink *ir.LoopInfo

// BenchmarkAnalyses/fresh builds what nearly every pass and every Verify
// builds — CFG, dominator tree and loop info — on the largest function -O3
// leaves in 525.x264_r; /reused asks the function's analysis slot for them
// again while its control flow is unchanged, as most passes of a sequence
// do. The allocation counts are the gates (benchdata/gates.json): a handful
// of slices and no map for a build, nothing at all for a reuse.
func BenchmarkAnalyses(b *testing.B) {
	var f *ir.Function
	for _, m := range bench.ByName("525.x264_r").Build(0, 2) {
		if err := passes.NewManager().Run(m, passes.O3Sequence(), passes.Stats{}, false); err != nil {
			b.Fatal(err)
		}
		for _, g := range m.Funcs {
			if !g.IsDecl && (f == nil || len(g.Blocks) > len(f.Blocks)) {
				f = g
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := ir.BuildCFG(f)
			dt := ir.BuildDomTree(c)
			loopSink = ir.FindLoops(c, dt)
		}
		b.ReportMetric(float64(len(f.Blocks)), "blocks")
	})
	b.Run("reused", func(b *testing.B) {
		ir.LoopsOf(f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, loopSink = ir.LoopsOf(f)
		}
		b.ReportMetric(float64(len(f.Blocks)), "blocks")
	})
}
