package planner

import (
	"testing"

	"repro/internal/passes"
)

// synthO3Trace fabricates a deterministic dense trace over the full O3
// pipeline: every invocation fires with a small pseudo-delta, which makes
// every O3 pass an active node and exercises the planner's worst realistic
// case on the reference vocabulary.
func synthO3Trace() Trace {
	o3 := passes.O3Sequence()
	tr := make(Trace, len(o3))
	for i, p := range o3 {
		tr[i] = PassDelta{Name: p, Delta: (i*7)%13 + 1}
	}
	return tr
}

// BenchmarkGreedyPlan measures greedy plan construction on the 76-pass
// reference vocabulary (~12µs; the whole build-plus-plan path stays well under
// a millisecond). Not a CI gate: no benchmark workload seeds from the planner.
func BenchmarkGreedyPlan(b *testing.B) {
	vocab := passes.Names()
	o3 := passes.O3Sequence()
	tr := synthO3Trace()

	bu := NewBuilder(vocab, 0)
	if err := bu.Add(tr); err != nil {
		b.Fatal(err)
	}
	g := bu.Graph()

	b.Run("plan-vocab76", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if plan := g.Plan(o3); len(plan) == 0 {
				b.Fatal("empty plan")
			}
		}
	})
	b.Run("build-plus-plan-vocab76", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bu := NewBuilder(vocab, 0)
			if err := bu.Add(tr); err != nil {
				b.Fatal(err)
			}
			if plan := bu.Graph().Plan(o3); len(plan) == 0 {
				b.Fatal("empty plan")
			}
		}
	})
}
