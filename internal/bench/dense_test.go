package bench

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
)

// TestSharedBodiesStayDense checks the invariant every reader of a cached
// build stands on: a body the compile cache holds is COW-shared and carries
// the dense block-order numbering Module.Clone left, so clone, fingerprint,
// verify and link index it by Instr.ID without writing a word of it. The
// second half is the -race check of "without writing": cached modules are
// verified, compared, cloned and linked from several workers at once.
func TestSharedBodiesStayDense(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Budget, opts.Workers = 8, 2
	if _, err := core.NewTuner(ev.Task(), opts, 3).Run(); err != nil {
		t.Fatal(err)
	}

	ev.mu.Lock()
	var mods []*ir.Module
	for _, e := range ev.cache {
		mods = append(mods, e.mod)
	}
	ev.mu.Unlock()
	if len(mods) < 10 {
		t.Fatalf("a Budget-8 run left only %d cached modules", len(mods))
	}
	var biggest *ir.Module
	for _, m := range mods {
		if biggest == nil || m.NumInstrs() > biggest.NumInstrs() {
			biggest = m
		}
		for _, f := range m.Funcs {
			if f.IsDecl {
				continue
			}
			if !f.Shared() {
				t.Fatalf("%s/%s: a cached body is not flagged shared", m.Name, f.Name)
			}
			id := 0
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.ID != id {
						t.Fatalf("%s/%s: instruction %d of block order has ID %d on a shared body", m.Name, f.Name, id, in.ID)
					}
					id++
				}
			}
		}
	}

	want := biggest.Fingerprint()
	if err := ir.Verify(biggest); err != nil {
		t.Fatalf("a cached build is invalid IR: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				c := biggest.Clone()
				if got := c.Fingerprint(); got != want {
					t.Errorf("concurrent fingerprint %016x, want %016x", got, want)
				}
				if err := ir.Verify(c); err != nil {
					t.Errorf("concurrent verify: %v", err)
				}
				if _, err := machine.Link(c); err != nil {
					t.Errorf("concurrent link: %v", err)
				}
				ir.MaterializeModule(c)
				if !ir.StructurallyEqual(biggest, c) {
					t.Error("a materialized copy differs from the cached module it was cloned from")
				}
				if got := c.Fingerprint(); got != want {
					t.Errorf("materialized copy fingerprints as %016x, want %016x", got, want)
				}
			}
		}()
	}
	wg.Wait()
}
