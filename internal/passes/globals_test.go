package passes_test

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/passes"
)

// TestPassesNeverWriteGlobalInitialisers holds every registered pass to the
// read-only invariant on ir.Global.InitI / InitF that lets module clones
// share the arrays: each pass runs on a COW clone of every benchmark module
// (so MaterializeModule gives it private Global values over shared arrays),
// after -O3 as well as on the pristine module; afterwards the original's
// initialisers hold what they held, and every initialiser the pass left in
// place is still the original array, not a copy.
func TestPassesNeverWriteGlobalInitialisers(t *testing.T) {
	type initialiser struct {
		i []int64
		f []float64
	}
	mgr := passes.NewManager()
	shared, checked := 0, 0
	for _, b := range benchPrograms() {
		for _, pristine := range b.Build(0, 2) {
			o3 := pristine.Clone()
			if err := passes.ApplyLevel(o3, "O3", passes.Stats{}); err != nil {
				t.Fatal(err)
			}
			for _, base := range []*ir.Module{pristine, o3} {
				want := map[string]initialiser{}
				for _, g := range base.Globals {
					want[g.Name] = initialiser{slices.Clone(g.InitI), slices.Clone(g.InitF)}
				}
				byName := map[string]*ir.Global{}
				for _, g := range base.Globals {
					byName[g.Name] = g
				}
				for _, name := range passes.Names() {
					m := base.Clone()
					if panicText(func() { mgr.RunOne(m, passes.Lookup(name), passes.Stats{}) }) != "" {
						continue
					}
					checked++
					for _, g := range base.Globals {
						if w := want[g.Name]; !slices.Equal(g.InitI, w.i) || !slices.Equal(g.InitF, w.f) {
							t.Fatalf("%s/%s: %s wrote the initialiser of @%s, which its clones share", b.Name, base.Name, name, g.Name)
						}
					}
					for _, g := range m.Globals {
						og := byName[g.Name]
						if og == nil {
							continue // a global the pass created
						}
						if len(g.InitI) > 0 && len(og.InitI) > 0 {
							if &g.InitI[0] != &og.InitI[0] {
								t.Fatalf("%s/%s: after %s @%s has a private copy of its integer initialiser", b.Name, base.Name, name, g.Name)
							}
							shared++
						}
						if len(g.InitF) > 0 && len(og.InitF) > 0 {
							if &g.InitF[0] != &og.InitF[0] {
								t.Fatalf("%s/%s: after %s @%s has a private copy of its float initialiser", b.Name, base.Name, name, g.Name)
							}
							shared++
						}
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no initialiser survived any pass: the test checks nothing")
	}
	t.Logf("%d pass runs checked, %d initialisers still shared with the original", checked, shared)
}
