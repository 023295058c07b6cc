package machine_test

import (
	"testing"

	"repro/internal/bench"
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
// noise samples. CI gates its ratio to BenchmarkExec/bytecode (measure_over_run
// in benchdata/gates.json).
func BenchmarkMeasure(b *testing.B) {
	mods := bench.ByName("telecom_gsm").Build(0, 2)
	ms := machine.NewMeasurement(machine.New(machine.CortexA57()), 0.01, 1)
	for i := 0; i < b.N; i++ {
		img, err := machine.Link(mods...)
		if err != nil {
			b.Fatal(err)
		}
		_, res, err := ms.TimeMedian(img, "main", 3)
		if err != nil {
			b.Fatal(err)
		}
		machine.ReleaseResult(res)
	}
}
