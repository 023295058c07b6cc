package passes_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

// panicText runs fn and returns the text of its panic, "" if it returned.
func panicText(fn func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// checkMaterializedClone holds Clone + MaterializeModule of m, as passes left
// it, to what a snapshot resume relies on: the copy prints and fingerprints
// like its source, is numbered densely without a further Renumber, and every
// slice a pass may append to has cap == len (pass output depends on clone
// capacities; DESIGN.md "Known divergence"). It reports rejected = true when
// m is IR the clone refuses — one of its two panics, which the harness counts
// as a rejected candidate.
func checkMaterializedClone(m *ir.Module) (rejected bool, err error) {
	c := m.Clone()
	if p := panicText(func() { ir.MaterializeModule(c) }); p != "" {
		if strings.Contains(p, "operand instruction not in function") || strings.Contains(p, "target block not in function") {
			return true, nil
		}
		return false, fmt.Errorf("materialize panicked: %s", p)
	}
	for _, f := range c.Funcs {
		if f.Shared() {
			return false, fmt.Errorf("%s: still shared after materialize", f.Name)
		}
		id := 0
		for _, b := range f.Blocks {
			if cap(b.Instrs) != len(b.Instrs) {
				return false, fmt.Errorf("%s/%s: Instrs has len %d, cap %d", f.Name, b.Name, len(b.Instrs), cap(b.Instrs))
			}
			for _, in := range b.Instrs {
				if in.ID != id {
					return false, fmt.Errorf("%s/%s: instruction %d of block order has ID %d", f.Name, b.Name, id, in.ID)
				}
				id++
				if cap(in.Ops) != len(in.Ops) || cap(in.Blocks) != len(in.Blocks) {
					return false, fmt.Errorf("%s/%s: %s has Ops %d/%d, Blocks %d/%d (len/cap)", f.Name, b.Name, in.Op,
						len(in.Ops), cap(in.Ops), len(in.Blocks), cap(in.Blocks))
				}
			}
		}
	}
	if got, want := c.Fingerprint(), m.Fingerprint(); got != want {
		return false, fmt.Errorf("clone fingerprints as %016x, source as %016x", got, want)
	}
	if got, want := c.String(), m.String(); got != want {
		return false, fmt.Errorf("clone prints differently from its source:\n--- source ---\n%s\n--- clone ---\n%s", want, got)
	}
	return false, nil
}

// TestCloneOfPassTouchedBody clones what snapshot resumes clone: bodies that
// passes have been inserting into, removing from and splicing between, under
// the random whole-vocabulary sequences of TestUsesMatchesScan, on the
// mid-sequence module whether it would verify or not. Checks come at random
// steps and at the end of each sequence, so the source of a clone carries the
// edits of one pass or of many (a clone leaves its source shared, and the
// next pass then starts from a fresh copy).
func TestCloneOfPassTouchedBody(t *testing.T) {
	type program struct {
		name  string
		build func() []*ir.Module
		iters int
	}
	var programs []program
	for name, build := range passes.ModulesForTest() {
		build := build
		programs = append(programs, program{name, func() []*ir.Module { return []*ir.Module{build()} }, 40})
	}
	for _, b := range append(bench.CBench(), bench.SPEC()...) {
		b := b
		programs = append(programs, program{b.Name, func() []*ir.Module { return b.Build(0, 2) }, 10})
	}
	sort.Slice(programs, func(i, j int) bool { return programs[i].name < programs[j].name })
	cloned, rejected, panics := 0, 0, 0
	defer func() {
		t.Logf("%d clones checked, %d modules rejected by the clone, %d abandoned on a pass panic", cloned, rejected, panics)
	}()
	names := passes.Names()
	rng := rand.New(rand.NewSource(20251001))
	mgr := passes.NewManager()
	for _, p := range programs {
		iters := p.iters
		if testing.Short() {
			iters = (iters + 3) / 4
		}
		for it := 0; it < iters; it++ {
			seq := make([]string, 3+rng.Intn(30))
			for i := range seq {
				seq[i] = names[rng.Intn(len(names))]
			}
		modules:
			for _, m := range p.build() {
				for i, name := range seq {
					if panicText(func() { mgr.RunOne(m, passes.Lookup(name), passes.Stats{}) }) != "" {
						panics++ // invalid IR from an earlier pass; see TestUsesMatchesScan
						continue modules
					}
					if i != len(seq)-1 && rng.Intn(4) != 0 {
						continue
					}
					cloned++
					rej, err := checkMaterializedClone(m)
					if err != nil {
						t.Fatalf("%s/%s after %s: %v\nseq=%v", p.name, m.Name, name, err, seq[:i+1])
					}
					if rej {
						rejected++
						continue modules
					}
				}
			}
		}
	}
	if cloned == 0 || rejected == cloned {
		t.Fatalf("nothing checked: %d clones, %d rejected", cloned, rejected)
	}
}
