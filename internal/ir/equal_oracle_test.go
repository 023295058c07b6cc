package ir_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

// TestStructurallyEqualMatchesFingerprint is the oracle test of the prefix
// cache's dedup decision: over random 8–60-pass sequences on every CBench /
// SPEC module of both datasets, the working module after every pass is held
// against the previous snapshot, taken as runSuffix takes them (every sixth
// pass, shared when equal, else a clone), and StructurallyEqual must answer
// exactly what comparing the two fingerprints answers. The comparison runs
// first, on the numbering the passes left; a true answer must leave the
// working module renumbered as Fingerprint would.
func TestStructurallyEqualMatchesFingerprint(t *testing.T) {
	const stride = 6
	seqs := 6
	if testing.Short() {
		seqs = 1
	}
	names := passes.Names()
	rng := rand.New(rand.NewSource(20261015))
	mgr := passes.NewManager()
	equal, unequal, panics := 0, 0, 0
	for bi, b := range append(bench.CBench(), bench.SPEC()...) {
		plat := []bench.Platform{bench.ARM(), bench.X86()}[bi%2]
		for ds := 0; ds < 2; ds++ {
			for _, pristine := range b.Build(ds, plat.Prof.VecWidth64) {
				ir.CompactModule(pristine)
				for s := 0; s < seqs; s++ {
					seq := make([]string, 8+rng.Intn(53))
					for i := range seq {
						seq[i] = names[rng.Intn(len(names))]
					}
					c := pristine.Clone()
					var prev *ir.Module
					for i, name := range seq {
						panicked := func() (r any) {
							defer func() { r = recover() }()
							mgr.RunOne(c, passes.Lookup(name), passes.Stats{})
							return nil
						}()
						if panicked != nil {
							panics++ // the harness rejects such a candidate; abandon it
							break
						}
						same := false
						if prev != nil {
							same = ir.StructurallyEqual(prev, c)
							if same && !renumbered(c) {
								t.Fatalf("%s/%s ds%d: equal answer left a body unnumbered\nseq=%v", b.Name, c.Name, ds, seq[:i+1])
							}
							if want := prev.Fingerprint() == c.Fingerprint(); same != want {
								t.Fatalf("%s/%s ds%d: StructurallyEqual = %v, fingerprints equal = %v\nseq=%v",
									b.Name, c.Name, ds, same, want, seq[:i+1])
							}
							if same {
								equal++
							} else {
								unequal++
							}
						}
						if depth := i + 1; depth%stride == 0 || depth == len(seq) {
							if !same {
								prev = c.Clone()
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d equal and %d unequal (state, snapshot) pairs, %d sequences abandoned on a pass panic", equal, unequal, panics)
	if equal == 0 || unequal == 0 {
		t.Fatal("the sequences exercised one answer only")
	}
}

// renumbered reports whether every body of m has IDs in block order.
func renumbered(m *ir.Module) bool {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		id := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.ID != id {
					return false
				}
				id++
			}
		}
	}
	return true
}
