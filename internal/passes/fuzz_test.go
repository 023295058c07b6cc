package passes

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// TestRandomSequencesPreserveSemantics is the pass suite's differential
// testing net: random pass sequences drawn from the full 76-pass vocabulary
// must never change program output, and the IR must verify after every pass.
// This mirrors the differential testing CITROEN applies to candidate
// sequences (§5.1).
func TestRandomSequencesPreserveSemantics(t *testing.T) {
	names := Names()
	programs := allTestModules()
	iters := 40
	if testing.Short() {
		iters = 10
	}
	rng := rand.New(rand.NewSource(20250705))
	mc := machine.New(machine.CortexA57())
	for name, build := range programs {
		refM := build()
		refImg, err := machine.Link(refM)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := mc.Run(refImg, "main")
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		for it := 0; it < iters; it++ {
			seqLen := 3 + rng.Intn(30)
			seq := make([]string, seqLen)
			for i := range seq {
				seq[i] = names[rng.Intn(len(names))]
			}
			m := build()
			st := Stats{}
			if err := NewManager().Run(m, seq, st, true); err != nil {
				t.Fatalf("%s it=%d: %v\nseq=%v", name, it, err, seq)
			}
			img, err := machine.Link(m)
			if err != nil {
				t.Fatalf("%s it=%d: link: %v\nseq=%v", name, it, err, seq)
			}
			res, err := mc.Run(img, "main")
			if err != nil {
				t.Fatalf("%s it=%d: run: %v\nseq=%v\n%s", name, it, err, seq, m.String())
			}
			if err := machine.OutputsMatch(ref.Output, res.Output, 1e-6); err != nil {
				t.Fatalf("%s it=%d: MISCOMPILE %v\nseq=%v\n%s", name, it, err, seq, m.String())
			}
		}
	}
}

// TestRandomSequencesAfterO3 stresses interactions on already-optimised IR.
func TestRandomSequencesAfterO3(t *testing.T) {
	names := Names()
	rng := rand.New(rand.NewSource(42))
	mc := machine.New(machine.Zen3())
	iters := 15
	if testing.Short() {
		iters = 5
	}
	for name, build := range allTestModules() {
		base := build()
		base.TargetVecWidth64 = 4
		if err := NewManager().Run(base, O3Sequence(), Stats{}, false); err != nil {
			t.Fatalf("%s: O3: %v", name, err)
		}
		refImg, _ := machine.Link(base)
		ref, err := mc.Run(refImg, "main")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for it := 0; it < iters; it++ {
			m := base.Clone()
			seqLen := 2 + rng.Intn(16)
			seq := make([]string, seqLen)
			for i := range seq {
				seq[i] = names[rng.Intn(len(names))]
			}
			if err := NewManager().Run(m, seq, Stats{}, true); err != nil {
				t.Fatalf("%s it=%d: %v\nseq=%v", name, it, err, seq)
			}
			img, _ := machine.Link(m)
			res, err := mc.Run(img, "main")
			if err != nil {
				t.Fatalf("%s it=%d: run: %v\nseq=%v", name, it, err, seq)
			}
			if err := machine.OutputsMatch(ref.Output, res.Output, 1e-6); err != nil {
				t.Fatalf("%s it=%d: MISCOMPILE %v\nseq=%v\n%s", name, it, err, seq, m.String())
			}
		}
	}
}
