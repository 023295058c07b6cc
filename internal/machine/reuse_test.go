package machine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
)

// engines runs one program three ways: the memo machine links COW clones
// (shared bodies, whose lowerings are kept and reused), the fresh machine
// links private deep copies (every function lowered for the image), and the
// tree-walker is the oracle over those private copies.
type engines struct {
	memo, fresh, tree *machine.Machine
}

func newEngines(prof machine.Profile) *engines {
	e := &engines{memo: machine.New(prof), fresh: machine.New(prof), tree: machine.New(prof)}
	e.tree.TreeWalk = true
	return e
}

// cowImage links COW clones of mods, as a measurement links its cached
// modules.
func cowImage(t *testing.T, mods []*ir.Module) *machine.Image {
	t.Helper()
	clones := make([]*ir.Module, len(mods))
	for i, m := range mods {
		clones[i] = m.Clone()
	}
	img, err := machine.Link(clones...)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// privateImage links deep copies of mods: no body is shared, so nothing is
// kept and every function is lowered for this image.
func privateImage(t *testing.T, mods []*ir.Module) *machine.Image {
	t.Helper()
	copies := make([]*ir.Module, len(mods))
	for i, m := range mods {
		c := m.Clone()
		ir.MaterializeModule(c)
		copies[i] = c
	}
	img, err := machine.Link(copies...)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// check runs mods on all three engines, twice on the memo (the second image
// is fully warm: every lowering it needs is kept from the first), and
// requires every Result field and error text to be bit-identical. It returns
// the oracle's result and error.
func (e *engines) check(t *testing.T, tag string, mods []*ir.Module) (*machine.Result, error) {
	t.Helper()
	priv := privateImage(t, mods)
	want, wantErr := e.tree.Run(priv, "main")
	got, err := e.fresh.Run(priv, "main")
	requireIdentical(t, tag+" fresh", got, want, err, wantErr)
	for pass := 0; pass < 2; pass++ {
		before := e.memo.BcCounters()
		got, err := e.memo.Run(cowImage(t, mods), "main")
		requireIdentical(t, fmt.Sprintf("%s memo run %d", tag, pass), got, want, err, wantErr)
		if d := e.memo.BcCounters().Sub(before); pass == 1 && err == nil && d.CodeMisses != 0 {
			t.Fatalf("%s: a warm image lowered %d functions again (%+v)", tag, d.CodeMisses, d)
		}
	}
	return want, wantErr
}

// TestReusedLoweringMatchesFresh: lowerings kept on shared bodies and
// assembled into many images give exactly what lowering each image afresh
// and what the tree-walker give. Random part: every benchmark on both
// platforms, one module under random 8-120-pass sequences while the others
// stay at -O3 (the manymod_bo shape). Crafted part: each way an image can
// differ under a reused body.
func TestReusedLoweringMatchesFresh(t *testing.T) {
	t.Run("random", testReusedLoweringRandom)
	t.Run("crafted", testReusedLoweringCrafted)
}

func testReusedLoweringRandom(t *testing.T) {
	names := passes.Names()
	rng := rand.New(rand.NewSource(20261017))
	perBench := 8
	if testing.Short() {
		perBench = 2
	}
	benches := append(bench.CBench(), bench.SPEC()...)
	if len(benches) != 15 {
		t.Fatalf("%d benchmarks, want 15", len(benches))
	}
	lowered := 0
	for _, plat := range []bench.Platform{bench.ARM(), bench.X86()} {
		e := newEngines(plat.Prof)
		for _, b := range benches {
			pristine := b.Build(0, plat.Prof.VecWidth64)
			o3 := make([]*ir.Module, len(pristine))
			for i, pm := range pristine {
				ir.CompactModule(pm)
				m := pm.Clone()
				if err := passes.ApplyLevel(m, "O3", passes.Stats{}); err != nil {
					t.Fatalf("%s/%s: O3: %v", b.Name, pm.Name, err)
				}
				o3[i] = compacted(m)
			}
			for c := 0; c < perBench; c++ {
				hot := rng.Intn(len(pristine))
				seq := make([]string, 8+rng.Intn(113))
				for i := range seq {
					seq[i] = names[rng.Intn(len(names))]
				}
				tuned, ok := compile(pristine[hot], seq)
				if !ok {
					continue // a rejected candidate: nothing to measure
				}
				mods := append([]*ir.Module(nil), o3...)
				mods[hot] = tuned
				tag := fmt.Sprintf("%s/%s %s module %s seq=%v", plat.Name, b.Name, plat.Prof.Name, tuned.Name, seq)
				if _, err := e.check(t, tag, mods); err == nil {
					lowered++
				}
			}
		}
		if st := e.memo.BcCounters(); st.CodeHits == 0 {
			t.Fatalf("%s: no lowering was ever reused: %+v", plat.Name, st)
		}
	}
	if lowered == 0 {
		t.Fatal("no candidate ran: the comparison is vacuous")
	}
}

// compile runs seq on a COW clone of m as the evaluator does and returns the
// verified, compacted result; false when the candidate is rejected.
func compile(m *ir.Module, seq []string) (out *ir.Module, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	c := m.Clone()
	if err := passes.Apply(c, seq, passes.Stats{}, false); err != nil || ir.Verify(c) != nil {
		return nil, false
	}
	return compacted(c), true
}

// compacted returns a private, compacted copy of m: the shape the compile
// cache keeps.
func compacted(m *ir.Module) *ir.Module {
	c := m.Clone()
	ir.MaterializeModule(c)
	ir.CompactModule(c)
	return c
}

// craftedCold is a module that stays the same while the module linked before
// it changes: main calls work (defined elsewhere) and its own helper, then
// outputs its global's address and third word.
func craftedCold() *ir.Module {
	m := &ir.Module{Name: "cold"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("table", ir.I64T, 4)
	g.InitI = []int64{10, 20, 30, 40}
	bd.DeclareFunction("work", ir.I64T, ir.I64T)
	helper := bd.NewFunction("helper", ir.I64T, ir.I64T)
	// A division: its cost differs between the profiles and is baked in.
	x3 := bd.Bin(ir.OpMul, helper.Params[0], ir.ConstInt(ir.I64T, 3))
	bd.Ret(bd.Bin(ir.OpSDiv, x3, ir.ConstInt(ir.I64T, 1)))
	bd.NewFunction("main", ir.VoidT)
	w := bd.Call("work", ir.I64T, ir.ConstInt(ir.I64T, 5))
	h := bd.Call("helper", ir.I64T, w)
	bd.Call("sim.out.i64", ir.VoidT, h)
	bd.Call("sim.out.i64", ir.VoidT, g)
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 2))))
	// An equal numeric constant must not share the global's slot.
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 0))
	bd.Ret(nil)
	return m
}

// craftedTuned is the module linked before craftedCold: nGlobals globals of
// three words each, extra functions defined before work, and work(x) = x+1
// storing into its last global.
func craftedTuned(nGlobals, extraFuncs int) *ir.Module {
	m := &ir.Module{Name: "tuned"}
	bd := ir.NewBuilder(m)
	var last *ir.Global
	for i := 0; i < nGlobals; i++ {
		last = bd.AddGlobal(fmt.Sprintf("g%d", i), ir.I64T, 3)
	}
	for i := 0; i < extraFuncs; i++ {
		f := bd.NewFunction(fmt.Sprintf("extra%d", i), ir.I64T, ir.I64T)
		bd.Ret(f.Params[0])
	}
	work := bd.NewFunction("work", ir.I64T, ir.I64T)
	r := bd.Bin(ir.OpAdd, work.Params[0], ir.ConstInt(ir.I64T, 1))
	if last != nil {
		bd.Store(r, last)
	}
	bd.Ret(r)
	return m
}

func testReusedLoweringCrafted(t *testing.T) {
	arm := newEngines(machine.CortexA57())
	cold := compacted(craftedCold())

	t.Run("global-and-function-shifts", func(t *testing.T) {
		// The cold body is reused in every image while the global layout
		// and the function list before it grow and shrink.
		var addrs []int64
		for _, shape := range [][2]int{{1, 0}, {3, 0}, {0, 0}, {3, 2}, {1, 0}, {0, 4}} {
			tuned := compacted(craftedTuned(shape[0], shape[1]))
			tag := fmt.Sprintf("tuned globals=%d extra funcs=%d", shape[0], shape[1])
			res, err := arm.check(t, tag, []*ir.Module{tuned, cold})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if res.Output[0].I != 18 || res.Output[2].I != 30 || res.Output[3].I != 0 {
				t.Fatalf("%s: output %+v", tag, res.Output)
			}
			addrs = append(addrs, res.Output[1].I)
		}
		if want := []int64{3, 9, 0, 9, 3, 0}; fmt.Sprint(addrs) != fmt.Sprint(want) {
			t.Fatalf("cold global's addresses %v, want %v", addrs, want)
		}
	})

	t.Run("callee-unresolved-then-resolved", func(t *testing.T) {
		absent := &ir.Module{Name: "tuned"}
		ir.NewBuilder(absent).AddGlobal("g0", ir.I64T, 1)
		for i, mods := range [][]*ir.Module{
			{compacted(absent), cold},
			{compacted(craftedTuned(1, 0)), cold},
			{compacted(absent), cold},
		} {
			_, err := arm.check(t, fmt.Sprintf("image %d", i), mods)
			if unresolved := i != 1; unresolved != errors.Is(err, machine.ErrNoFunction) {
				t.Fatalf("image %d: err = %v", i, err)
			}
		}
	})

	t.Run("missing-global", func(t *testing.T) {
		// ghost belongs to a module that is never linked: the tree-walker
		// reads its address as 0.
		ghost := ir.NewBuilder(&ir.Module{Name: "elsewhere"}).AddGlobal("ghost", ir.I64T, 2)
		m := &ir.Module{Name: "haunted"}
		bd := ir.NewBuilder(m)
		g := bd.AddGlobal("real", ir.I64T, 2)
		g.InitI = []int64{7, 8}
		bd.NewFunction("main", ir.VoidT)
		bd.Call("sim.out.i64", ir.VoidT, ghost)
		bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, ghost))
		bd.Call("sim.out.i64", ir.VoidT, g)
		bd.Ret(nil)
		res, err := arm.check(t, "missing global", []*ir.Module{compacted(m)})
		if err != nil || fmt.Sprint(res.Output) != "[{false 0 0} {false 7 0} {false 0 0}]" {
			t.Fatalf("missing global: %+v, %v", res, err)
		}
	})

	t.Run("two-profiles", func(t *testing.T) {
		// One memo machine per profile over the same shared bodies: each
		// lowering replaces the other's on the body, and each result is
		// its own profile's.
		x86 := newEngines(machine.Zen3())
		mods := []*ir.Module{compacted(craftedTuned(2, 1)), cold}
		var cycles [2]float64
		for i := 0; i < 4; i++ {
			e := []*engines{arm, x86}[i%2]
			res, err := e.check(t, e.memo.Prof.Name, mods)
			if err != nil {
				t.Fatal(err)
			}
			cycles[i%2] = res.Cycles
		}
		if cycles[0] == cycles[1] {
			t.Fatalf("both profiles cost the program %v cycles: the test cannot tell them apart", cycles[0])
		}
	})

	t.Run("unlowerable", func(t *testing.T) {
		m := &ir.Module{Name: "entryphi"}
		bd := ir.NewBuilder(m)
		bd.NewFunction("main", ir.VoidT)
		bd.Call("sim.out.i64", ir.VoidT, bd.Phi(ir.I64T))
		bd.Ret(nil)
		m = compacted(m)
		for i := 0; i < 2; i++ {
			if _, err := arm.memo.Run(cowImage(t, []*ir.Module{m}), "main"); !errors.Is(err, machine.ErrUnlowerable) {
				t.Fatalf("run %d: err = %v, want ErrUnlowerable", i, err)
			}
			if kept := m.Funcs[0].Lowered(); kept != nil {
				t.Fatalf("run %d: an unlowerable body kept %v", i, kept)
			}
		}
	})
}

// TestConcurrentLoweringOfSharedBodies: goroutines run distinct images over
// the same shared bodies, on two machines of one profile and one of another,
// so they lower, publish, replace and reuse those bodies' lowerings at once.
// Every result must equal a serial run of the same image on private copies.
func TestConcurrentLoweringOfSharedBodies(t *testing.T) {
	profs := []machine.Profile{machine.CortexA57(), machine.CortexA57(), machine.Zen3()}
	// Each program in variants: all modules as built, or one module at -O3
	// and the others shared with every other variant.
	var variants [][]*ir.Module
	for _, name := range []string{"telecom_gsm", "automotive_bitcount", "security_sha"} {
		mods := bench.ByName(name).Build(0, 2)
		for i, m := range mods {
			mods[i] = compacted(m)
		}
		variants = append(variants, mods)
		for i, m := range mods {
			o3 := m.Clone()
			if err := passes.ApplyLevel(o3, "O3", passes.Stats{}); err != nil {
				t.Fatal(err)
			}
			v := append([]*ir.Module(nil), mods...)
			v[i] = compacted(o3)
			variants = append(variants, v)
		}
	}
	type job struct{ variant, machine int }
	var jobs []job
	for round := 0; round < 3; round++ {
		for v := range variants {
			for mi := range profs {
				jobs = append(jobs, job{v, mi})
			}
		}
	}
	want := make([][]*machine.Result, len(variants))
	for v, mods := range variants {
		want[v] = make([]*machine.Result, len(profs))
		for mi, prof := range profs {
			res, err := machine.New(prof).Run(privateImage(t, mods), "main")
			if err != nil {
				t.Fatal(err)
			}
			want[v][mi] = res
		}
	}

	machines := make([]*machine.Machine, len(profs))
	for i, prof := range profs {
		machines[i] = machine.New(prof)
	}
	// Images are linked up front: Link and t.Fatal stay on this goroutine.
	imgs := make([]*machine.Image, len(jobs))
	for i, j := range jobs {
		imgs[i] = cowImage(t, variants[j.variant])
	}
	got := make([]*machine.Result, len(jobs))
	errs := make([]error, len(jobs))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				got[i], errs[i] = machines[jobs[i].machine].Run(imgs[i], "main")
			}
		}()
	}
	wg.Wait()
	var hits int64
	for _, m := range machines {
		hits += m.BcCounters().CodeHits
	}
	if hits == 0 {
		t.Fatal("no machine reused a lowering: the bodies were never shared")
	}
	for i, j := range jobs {
		requireIdentical(t, fmt.Sprintf("job %d (variant %d, machine %d)", i, j.variant, j.machine),
			got[i], want[j.variant][j.machine], errs[i], nil)
	}
}
