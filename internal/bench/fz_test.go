package bench

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/passes"
)

// TestFuzzBenchModules differential-fuzzes the real benchmark modules with
// per-pass IR verification, biased toward interprocedural passes (the ones
// with the trickiest invariants).
func TestFuzzBenchModules(t *testing.T) {
	names := passes.Names()
	rng := rand.New(rand.NewSource(4242))
	b := ByName("telecom_gsm")
	mods := b.Build(0, 2)
	ipo := []string{"inline", "always-inline", "argpromotion", "deadargelim", "mergefunc", "ipsccp", "globaldce", "tailcallelim", "partially-inline-libcalls", "callsite-splitting", "function-attrs", "inferattrs"}
	iters := 120
	if testing.Short() {
		iters = 30
	}
	for it := 0; it < iters; it++ {
		seq := make([]string, 4+rng.Intn(40))
		for i := range seq {
			if rng.Intn(2) == 0 {
				seq[i] = ipo[rng.Intn(len(ipo))]
			} else {
				seq[i] = names[rng.Intn(len(names))]
			}
		}
		for _, m := range mods {
			c := m.Clone()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("PANIC %v\nmod=%s seq=%v", r, m.Name, seq)
					}
				}()
				if err := passes.NewManager().Run(c, seq, passes.Stats{}, true); err != nil {
					t.Fatalf("mod=%s seq=%v: %v", m.Name, seq, err)
				}
				_ = ir.Verify
			}()
		}
	}
}
