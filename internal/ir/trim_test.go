package ir_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

// TestTrimModuleMatchesSlabClone holds the in-place reset to the copy it
// stands in for. Two copies of every CBench / SPEC module, on both datasets,
// run the same random 8–60-pass sequence in lockstep; every third pass one is
// trimmed in place and the other replaced by Clone + MaterializeModule of
// itself. Each slice a slab clone re-slabs must then have the same length,
// capacity and nil-ness in both, and the trim must change neither the printed
// module nor its fingerprint. Passes are deterministic given equal slices,
// so the two copies stay the same code all the way.
func TestTrimModuleMatchesSlabClone(t *testing.T) {
	seqs := 3
	if testing.Short() {
		seqs = 1
	}
	names := passes.Names()
	rng := rand.New(rand.NewSource(20261016))
	mgr := passes.NewManager()
	checked, abandoned := 0, 0
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
					trimmed, cloned := pristine.Clone(), pristine.Clone()
					for i, name := range seq {
						p1 := runPass(mgr, trimmed, name)
						p2 := runPass(mgr, cloned, name)
						if p1 != p2 {
							t.Fatalf("%s/%s ds%d: the two copies panic differently: %q vs %q\nseq=%v", b.Name, pristine.Name, ds, p1, p2, seq[:i+1])
						}
						if p1 != "" {
							abandoned++ // the harness rejects such a candidate
							break
						}
						if (i+1)%3 != 0 {
							continue
						}
						before, fp := trimmed.String(), trimmed.Fingerprint()
						ir.TrimModule(trimmed)
						cloned = cloned.Clone()
						ir.MaterializeModule(cloned)
						where := fmt.Sprintf("%s/%s ds%d after %v", b.Name, pristine.Name, ds, seq[:i+1])
						if diff := shapeDiff(trimmed, cloned); diff != "" {
							t.Fatalf("%s: %s", where, diff)
						}
						if after := trimmed.String(); after != before || trimmed.Fingerprint() != fp {
							t.Fatalf("%s: the trim changed the module", where)
						}
						if cloned.String() != before {
							t.Fatalf("%s: the trimmed and the cloned copy diverged", where)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d trims held to a slab clone, %d sequences abandoned on a pass panic", checked, abandoned)
	if checked == 0 {
		t.Fatal("nothing was checked")
	}
}

// The shapes no pass leaves on the benchmark modules, made by hand: spare
// capacity on Params, Ops and Cases, an empty block, and an instruction whose
// parent pointer names another block. TrimModule must give each what Clone +
// MaterializeModule gives it, parents included.
func TestTrimModuleCraftedShapes(t *testing.T) {
	craft := func() *ir.Module {
		m := benchModule(t, false)
		f := m.Funcs[0]
		f.Params = append(make([]*ir.Param, 0, len(f.Params)+4), f.Params...)
		b0, b1 := f.Blocks[0], f.Blocks[1]
		term := b0.Term()
		term.Ops = append(make([]ir.Value, 0, len(term.Ops)+4), term.Ops...)
		term.Cases = append(make([]int64, 0, 5), 7, 9)
		b1.Instrs = append(b1.Instrs, b0.Instrs[0]) // parent still b0
		b0.Instrs = b0.Instrs[1:]
		empty := &ir.Block{Name: "empty"}
		ir.AttachBlock(empty, f)
		f.Blocks = append(f.Blocks, empty)
		return m
	}
	trimmed, cloned := craft(), craft().Clone()
	ir.TrimModule(trimmed)
	ir.MaterializeModule(cloned)
	if diff := shapeDiff(trimmed, cloned); diff != "" {
		t.Fatal(diff)
	}
	for _, f := range trimmed.Funcs {
		for _, b := range f.Blocks {
			if b.Parent() != f {
				t.Fatalf("%s: block %s has another parent", f.Name, b.Name)
			}
			for _, in := range b.Instrs {
				if in.Parent() != b {
					t.Fatalf("%s: an instruction of block %s has another parent", f.Name, b.Name)
				}
			}
		}
	}
}

// runPass runs one pass and returns the text of its panic, or "".
func runPass(mgr *passes.Manager, m *ir.Module, name string) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	mgr.RunOne(m, passes.Lookup(name), passes.Stats{})
	return ""
}

// shape is what a slab clone decides about a slice.
type shape struct {
	len, cap int
	isNil    bool
}

func shapeOf[T any](s []T) shape { return shape{len(s), cap(s), s == nil} }

// shapeDiff names the first re-slabbed slice whose shape differs between a
// and b, or returns "".
func shapeDiff(a, b *ir.Module) string {
	if len(a.Funcs) != len(b.Funcs) {
		return fmt.Sprintf("%d functions vs %d", len(a.Funcs), len(b.Funcs))
	}
	diff := func(what string, x, y shape) string {
		if x != y {
			return fmt.Sprintf("%s: %+v vs slab clone %+v", what, x, y)
		}
		return ""
	}
	for i, fa := range a.Funcs {
		fb := b.Funcs[i]
		if d := diff(fa.Name+" Params", shapeOf(fa.Params), shapeOf(fb.Params)); d != "" {
			return d
		}
		if d := diff(fa.Name+" Blocks", shapeOf(fa.Blocks), shapeOf(fb.Blocks)); d != "" {
			return d
		}
		for bi, ba := range fa.Blocks {
			bb := fb.Blocks[bi]
			where := fmt.Sprintf("%s block %d", fa.Name, bi)
			if d := diff(where+" Instrs", shapeOf(ba.Instrs), shapeOf(bb.Instrs)); d != "" {
				return d
			}
			for k, ia := range ba.Instrs {
				ib := bb.Instrs[k]
				where := fmt.Sprintf("%s instr %d", where, k)
				if d := diff(where+" Ops", shapeOf(ia.Ops), shapeOf(ib.Ops)); d != "" {
					return d
				}
				if d := diff(where+" Blocks", shapeOf(ia.Blocks), shapeOf(ib.Blocks)); d != "" {
					return d
				}
				if d := diff(where+" Cases", shapeOf(ia.Cases), shapeOf(ib.Cases)); d != "" {
					return d
				}
			}
		}
	}
	return ""
}
