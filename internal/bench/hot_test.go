package bench

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/passes"
)

// freshO3HotModules is the pipeline HotModules ran on every call before it
// read the baseline's profile, kept as its oracle: clone the pristine
// dataset-0 modules, push each through passes.ApplyLevel("O3") uncached, link,
// run once, and rank the modules by the exclusive cycles of the functions the
// pristine build gave them. The sums run in module and function order.
func freshO3HotModules(t *testing.T, ev *Evaluator, coverage float64) ([]string, map[string]float64) {
	t.Helper()
	mods := cloneAll(ev.pristine[0])
	funcMod := map[string]string{}
	var funcs []string
	for _, m := range mods {
		for _, f := range m.Funcs {
			if !f.IsDecl {
				funcMod[f.Name] = m.Name
				funcs = append(funcs, f.Name)
			}
		}
		if err := passes.ApplyLevel(m, "O3", passes.Stats{}); err != nil {
			t.Fatal(err)
		}
	}
	img, err := machine.Link(mods...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.meas.Machine.Run(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	defer machine.ReleaseResult(res)
	byMod := map[string]float64{}
	total := 0.0
	mainName := ev.Bench.Name + "_main"
	for _, fn := range funcs {
		c, ok := res.FuncCycles[fn]
		if mod := funcMod[fn]; ok && mod != mainName {
			byMod[mod] += c
			total += c
		}
	}
	if total == 0 {
		return ev.Modules(), byMod
	}
	names := ev.Modules()
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && byMod[names[j]] > byMod[names[j-1]]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	frac := map[string]float64{}
	for m, c := range byMod {
		frac[m] = c / total
	}
	var hot []string
	acc := 0.0
	for _, n := range names {
		hot = append(hot, n)
		acc += frac[n]
		if acc >= coverage {
			break
		}
	}
	return hot, frac
}

// TestHotModulesMatchFreshO3Build: the profile the evaluator keeps from its
// -O3 baseline run ranks the modules exactly as a from-pristine -O3 build of
// its own would — same list, every fraction bit for bit — on every benchmark
// and both platforms.
func TestHotModulesMatchFreshO3Build(t *testing.T) {
	for _, plat := range []Platform{ARM(), X86()} {
		for _, b := range append(CBench(), SPEC()...) {
			ev, err := NewEvaluator(b, plat, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, plat.Name, err)
			}
			hot, frac, err := ev.HotModules(0.9)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, plat.Name, err)
			}
			wantHot, wantFrac := freshO3HotModules(t, ev, 0.9)
			if !slices.Equal(hot, wantHot) {
				t.Errorf("%s/%s: hot = %v, fresh -O3 build gives %v", b.Name, plat.Name, hot, wantHot)
			}
			if len(frac) != len(wantFrac) {
				t.Errorf("%s/%s: %d fractions, fresh -O3 build gives %d", b.Name, plat.Name, len(frac), len(wantFrac))
			}
			for m, want := range wantFrac {
				if got, ok := frac[m]; !ok || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s/%s: frac[%s] = %v (present %v), fresh -O3 build gives %v", b.Name, plat.Name, m, got, ok, want)
				}
			}
		}
	}
}

// TestHotModulesBuildsNothing: HotModules is a lookup — no pipeline runs, no
// image is linked or executed, no cache or clone counter moves — and every
// call returns the same answer in storage of its own.
func TestHotModulesBuildsNothing(t *testing.T) {
	ev, err := NewEvaluator(ByName("525.x264_r"), X86(), 4)
	if err != nil {
		t.Fatal(err)
	}
	counters := func() string {
		hits, misses := ev.CacheCounters()
		saved, replayed, bytes, evictions := ev.PrefixCounters()
		shared, materialized := ev.CowCounters()
		return fmt.Sprint(ev.Compilations, ev.Measurements, hits, misses,
			saved, replayed, bytes, evictions, shared, materialized, ev.BcCounters())
	}
	before := counters()
	hot0, frac0, err := ev.HotModules(0.9)
	if err != nil {
		t.Fatal(err)
	}
	wantHot, wantFrac := slices.Clone(hot0), maps.Clone(frac0)
	// A caller may do what it likes with its results.
	hot0[0] = "scribbled"
	clear(frac0)
	for i := 0; i < 100; i++ {
		hot, frac, err := ev.HotModules(0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(hot, wantHot) || !reflect.DeepEqual(frac, wantFrac) {
			t.Fatalf("call %d: %v %v, first call gave %v %v", i, hot, frac, wantHot, wantFrac)
		}
	}
	if after := counters(); after != before {
		t.Fatalf("HotModules moved a counter:\nbefore %s\nafter  %s", before, after)
	}
}
