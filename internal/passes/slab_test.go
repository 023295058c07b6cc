package passes_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

// TestSlabOperandsHaveExactCapacity: the instructions full unrolling clones
// and the scalarizer creates take their operand slices from one slab per
// burst, and each must have capacity equal to its length, as the make or
// composite literal each came from had, so a later append reallocates
// where it did. Checked right after each run of the passes, on every CBench
// / SPEC module on both platforms under random sequences: every instruction
// of a block a full unroll created, and every instruction the scalarizer
// created or rewrote.
func TestSlabOperandsHaveExactCapacity(t *testing.T) {
	names := passes.Names()
	rng := rand.New(rand.NewSource(6))
	mgr := passes.NewManager()
	unrolled, scalarized := 0, 0
	for _, b := range append(bench.CBench(), bench.SPEC()...) {
		for _, plat := range []bench.Platform{bench.ARM(), bench.X86()} {
			for _, m := range b.Build(0, plat.Prof.VecWidth64) {
				seq := make([]string, 8+rng.Intn(113))
				for i := range seq {
					seq[i] = names[rng.Intn(len(names))]
				}
				for i, name := range seq {
					before := map[*ir.Block]bool{}
					opBefore := map[*ir.Instr]ir.Op{}
					for _, f := range m.Funcs {
						for _, blk := range f.Blocks {
							before[blk] = true
							for _, in := range blk.Instrs {
								opBefore[in] = in.Op
							}
						}
					}
					st := passes.Stats{}
					panicked := func() (r any) {
						defer func() { r = recover() }()
						mgr.RunOne(m, passes.Lookup(name), st)
						return nil
					}()
					if panicked != nil {
						break
					}
					where := fmt.Sprintf("%s/%s %s after %v", b.Name, m.Name, plat.Name, seq[:i+1])
					for _, f := range m.Funcs {
						for _, blk := range f.Blocks {
							full := strings.HasPrefix(name, "loop-unroll") && !before[blk] && strings.HasSuffix(blk.Name, "_unr")
							for _, in := range blk.Instrs {
								op, old := opBefore[in]
								scal := name == "scalarizer" && (!old || op.IsBinary() && in.Op == ir.OpInsertElement)
								if !full && !scal {
									continue
								}
								if cap(in.Ops) != len(in.Ops) {
									t.Fatalf("%s: %v in %s has %d operands, capacity %d", where, in.Op, blk.Name, len(in.Ops), cap(in.Ops))
								}
								if full {
									unrolled++
								} else {
									scalarized++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d fully unrolled and %d scalarizer instructions checked", unrolled, scalarized)
	if unrolled == 0 || scalarized == 0 {
		t.Fatal("the sequences never fully unrolled a loop or scalarized a vector op")
	}
}
