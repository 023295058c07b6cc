package ir_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/passes"
)

// benchModule builds a representative multi-kernel module and, when optimize
// is set, runs the O3 pipeline over it so the clone benchmarks see the
// instruction mix a mid-sequence prefix snapshot sees.
func benchModule(tb testing.TB, optimize bool) *ir.Module {
	m := irgen.BuildModule(irgen.ModuleSpec{
		Name: "clonebench",
		Kernels: []irgen.KernelSpec{
			{Kind: irgen.DotProduct, Size: 128, Reps: 3, Unroll: 8, ExitPred: ir.CmpSLT},
			{Kind: irgen.Stencil, Size: 128, Reps: 2, ExitPred: ir.CmpSLE},
			{Kind: irgen.StateMachine, Size: 128, Reps: 2, ExitPred: ir.CmpSLT},
			{Kind: irgen.Histogram, Size: 96, Reps: 2, ExitPred: ir.CmpNE},
		},
		Seed: 42,
	})
	if optimize {
		if err := passes.ApplyLevel(m, "O3", passes.Stats{}); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// BenchmarkModuleClone measures the copy paths behind snapshot creation and
// cache-hit handout in the prefix-snapshot compile cache: the copy-on-write
// Clone (what a cache hit pays) and Clone+MaterializeModule (what the first
// mutating pass pays — the old eager deep copy, now slab-backed). The
// -materialize cases clone a compacted module; optimized-materialize-
// uncompacted clones the module as -O3 left it, bodies full of instructions
// passes inserted, which is what a snapshot resume clones.
func BenchmarkModuleClone(b *testing.B) {
	for _, mode := range []struct {
		name     string
		optimize bool
	}{
		{"pristine", false},
		{"optimized", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := benchModule(b, mode.optimize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = m.Clone()
			}
		})
		materialize := func(compact bool) func(b *testing.B) {
			return func(b *testing.B) {
				m := benchModule(b, mode.optimize)
				if compact {
					ir.CompactModule(m)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := m.Clone()
					ir.MaterializeModule(c)
					sink = c
				}
			}
		}
		b.Run(mode.name+"-materialize", materialize(true))
		if mode.optimize {
			b.Run(mode.name+"-materialize-uncompacted", materialize(false))
		}
	}
}

// BenchmarkFingerprint measures the structural hash of a module as -O3 left
// it (optimized) against the comparison the prefix cache makes in its place
// at every no-op-looking stride boundary (bench.runSuffix): equal compares
// the module, COW-shared as a snapshot is, with its materialized clone, as
// the working module is — equal all the way, so the walk reaches the end.
func BenchmarkFingerprint(b *testing.B) {
	b.Run("optimized", func(b *testing.B) {
		m := benchModule(b, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkFP = m.Fingerprint()
		}
	})
	b.Run("equal", func(b *testing.B) {
		m := benchModule(b, true)
		c := m.Clone()
		ir.MaterializeModule(c)
		if !ir.StructurallyEqual(m, c) {
			b.Fatal("a module differs from its materialized clone")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkEq = ir.StructurallyEqual(m, c)
		}
	})
}

// BenchmarkSnapshotHandout measures the cache-hit handout path: the clone a
// caller receives for an immutable cached snapshot, including the renumbering
// Link performs before interpretation.
func BenchmarkSnapshotHandout(b *testing.B) {
	m := benchModule(b, true)
	m.Renumber()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Renumber()
		sink = c
	}
}

var (
	sink   *ir.Module
	sinkFP uint64
	sinkEq bool
)
