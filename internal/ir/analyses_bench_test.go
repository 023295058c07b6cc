package ir_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

var loopSink *ir.LoopInfo

// BenchmarkAnalyses builds what nearly every pass and every Verify builds —
// CFG, dominator tree and loop info — on the largest function -O3 leaves in
// 525.x264_r. The allocation count is the gate (benchdata/gates.json): a
// handful of slices, no maps.
func BenchmarkAnalyses(b *testing.B) {
	var f *ir.Function
	for _, m := range bench.ByName("525.x264_r").Build(0, 2) {
		if err := passes.ApplyLevel(m, "O3", passes.Stats{}); err != nil {
			b.Fatal(err)
		}
		for _, g := range m.Funcs {
			if !g.IsDecl && (f == nil || len(g.Blocks) > len(f.Blocks)) {
				f = g
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ir.BuildCFG(f)
		dt := ir.BuildDomTree(c)
		loopSink = ir.FindLoops(c, dt)
	}
	b.ReportMetric(float64(len(f.Blocks)), "blocks")
}
