package passes_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

// scanOf is the reference scan: the uses of v in block, instruction and slot
// order.
func scanOf(f *ir.Function, v ir.Value) []ir.Use {
	var out []ir.Use
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for slot, op := range in.Ops {
				if op == v {
					out = append(out, ir.Use{User: in, Slot: slot})
				}
			}
		}
	}
	return out
}

// checkFreshIndex holds a fresh index of every function of m to the scan
// helpers: Count and Has for every instruction and parameter, Of in order.
func checkFreshIndex(m *ir.Module) error {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		u := ir.ComputeUses(f)
		check := func(v ir.Value) error {
			if got, want := u.Count(v), ir.CountUses(f, v); got != want {
				return fmt.Errorf("%s: Count = %d, CountUses = %d", f.Name, got, want)
			}
			if got, want := u.Has(v), ir.HasUses(f, v); got != want {
				return fmt.Errorf("%s: Has = %v, HasUses = %v", f.Name, got, want)
			}
			if got, want := u.Of(v), scanOf(f, v); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s: Of returns %d uses out of scan order (%d in the scan)", f.Name, len(got), len(want))
			}
			return nil
		}
		var err error
		for _, p := range f.Params {
			if err == nil {
				err = check(p)
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if err == nil {
					err = check(in)
				}
			}
		}
		if err == nil {
			err = u.Check(f)
		}
		u.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// TestUsesMatchesScan is the oracle test of the def-use fast path: random
// sequences over the whole pass vocabulary, and after every single pass — on
// the mid-sequence module, verified or not — a fresh index must agree with
// the scans. While the passes run, every index a pass queries again or
// releases is checked against the function as it then is, so a pass that
// lets its index go stale fails here whether or not the result shows it.
func TestUsesMatchesScan(t *testing.T) {
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
	for _, suite := range [][]*bench.Benchmark{bench.CBench(), bench.SPEC()} {
		for _, b := range suite {
			b := b
			programs = append(programs, program{b.Name, func() []*ir.Module { return b.Build(0, 2) }, 10})
		}
	}
	var stale error
	checked, ran, panics := 0, 0, 0
	defer func() {
		t.Logf("%d passes run, %d abandoned on a panic, %d live indexes checked", ran, panics, checked)
	}()
	defer passes.SetUsesChecked(func(f *ir.Function, u *ir.Uses) {
		checked++
		if err := u.Check(f); err != nil && stale == nil {
			stale = err
		}
	})()

	names := passes.Names()
	rng := rand.New(rand.NewSource(20250705))
	mgr := passes.NewManager()
	for _, p := range programs {
		iters := p.iters
		if testing.Short() && iters > 10 {
			iters = 10
		}
		for it := 0; it < iters; it++ {
			seq := make([]string, 3+rng.Intn(30))
			for i := range seq {
				seq[i] = names[rng.Intn(len(names))]
			}
			for _, m := range p.build() {
				for i, name := range seq {
					// A pass may panic on the invalid IR an earlier pass of
					// the sequence left behind (the harness counts those as
					// rejected candidates); the module is then abandoned.
					panicked := func() (r any) {
						defer func() { r = recover() }()
						mgr.RunOne(m, passes.Lookup(name), passes.Stats{})
						return nil
					}()
					if stale != nil {
						t.Fatalf("%s/%s: %s left a stale index: %v\nseq=%v", p.name, m.Name, name, stale, seq[:i+1])
					}
					ran++
					if panicked != nil {
						panics++
						break
					}
					if err := checkFreshIndex(m); err != nil {
						t.Fatalf("%s/%s after %s: %v\nseq=%v", p.name, m.Name, name, err, seq[:i+1])
					}
				}
			}
		}
	}
}
