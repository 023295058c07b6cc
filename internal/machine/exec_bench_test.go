package machine_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
)

// BenchmarkExec compares the two measurement engines on a standard benchmark
// program (the whole linked image, main entry): the tree-walking interpreter
// vs the lowered bytecode stream. CI gates on bytecode being >= 3x faster in
// ns/op (see BENCH_machine.json).
func BenchmarkExec(b *testing.B) {
	mods := bench.ByName("telecom_gsm").Build(0, 2)
	img, err := machine.Link(mods...)
	if err != nil {
		b.Fatal(err)
	}
	engines := []struct {
		name     string
		treeWalk bool
	}{
		{"treewalk", true},
		{"bytecode", false},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			m := machine.New(machine.CortexA57())
			m.TreeWalk = eng.treeWalk
			// Lower the image (and warm the scratch pools) so the loop times
			// steady-state execution alone.
			res, err := m.Run(img, "main")
			if err != nil {
				b.Fatal(err)
			}
			machine.ReleaseResult(res)
			b.ReportMetric(float64(res.Steps), "steps/run")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := m.Run(img, "main")
				if err != nil {
					b.Fatal(err)
				}
				machine.ReleaseResult(res)
			}
		})
	}
}

// BenchmarkMeasure times what a tuning run pays per measured candidate: link
// the modules into a fresh image, lower it, execute it once and draw three
// noise samples. fresh links private bodies, so every function is lowered for
// every image (builder output, or a module the candidate's passes just
// built); reused links COW clones of compacted modules, as every cold module
// of a measurement is linked, so each function's lowering is kept on its
// shared body and only assembled into the new image. CI gates fresh's ratio
// to BenchmarkExec/bytecode (measure_over_run in benchdata/gates.json).
func BenchmarkMeasure(b *testing.B) {
	for _, c := range []struct {
		name string
		cow  bool
	}{{"fresh", false}, {"reused", true}} {
		b.Run(c.name, func(b *testing.B) {
			mods := bench.ByName("telecom_gsm").Build(0, 2)
			if c.cow {
				for _, m := range mods {
					ir.CompactModule(m)
				}
			}
			ms := machine.NewMeasurement(machine.New(machine.CortexA57()), 0.01, 1)
			linked := make([]*ir.Module, len(mods))
			for i := 0; i < b.N; i++ {
				for j, m := range mods {
					if c.cow {
						m = m.Clone()
					}
					linked[j] = m
				}
				img, err := machine.Link(linked...)
				if err != nil {
					b.Fatal(err)
				}
				_, res, err := ms.TimeMedian(img, "main", 3)
				if err != nil {
					b.Fatal(err)
				}
				machine.ReleaseResult(res)
			}
		})
	}
}
