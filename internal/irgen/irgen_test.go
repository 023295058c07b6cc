package irgen

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
)

func allKinds() []KernelKind {
	var out []KernelKind
	for k := KernelKind(0); k < numKernelKinds; k++ {
		out = append(out, k)
	}
	return out
}

func buildOne(t *testing.T, kind KernelKind, seed int64, pred ir.CmpPred) []*ir.Module {
	t.Helper()
	spec := ModuleSpec{
		Name:    "m0",
		Kernels: []KernelSpec{{Kind: kind, Size: 48, Reps: 1, Unroll: 4, ExitPred: pred}},
		Seed:    seed,
	}
	mod := BuildModule(spec)
	mod.TargetVecWidth64 = 2
	main := BuildMain("t", []string{"m0"})
	if err := ir.Verify(mod); err != nil {
		t.Fatalf("%v kernel: verify: %v\n%s", kind, err, mod.String())
	}
	if err := ir.Verify(main); err != nil {
		t.Fatalf("main: %v", err)
	}
	return []*ir.Module{mod, main}
}

func run(t *testing.T, mods []*ir.Module) *machine.Result {
	t.Helper()
	img, err := machine.Link(mods...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.New(machine.CortexA57()).Run(img, "main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestEveryKernelKindBuildsAndRuns(t *testing.T) {
	for _, kind := range allKinds() {
		for _, pred := range []ir.CmpPred{ir.CmpSLT, ir.CmpSLE, ir.CmpNE} {
			mods := buildOne(t, kind, 7, pred)
			res := run(t, mods)
			if len(res.Output) == 0 {
				t.Fatalf("kernel %v produced no output", kind)
			}
			if res.Steps < 50 {
				t.Fatalf("kernel %v trivially small: %d steps", kind, res.Steps)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := buildOne(t, DotProduct, 11, ir.CmpSLT)
	b := buildOne(t, DotProduct, 11, ir.CmpSLT)
	if a[0].String() != b[0].String() {
		t.Fatal("generation not deterministic")
	}
	ra, rb := run(t, a), run(t, b)
	if ra.Cycles != rb.Cycles {
		t.Fatal("execution not deterministic")
	}
}

func TestDifferentSeedsDifferentData(t *testing.T) {
	a := buildOne(t, DotProduct, 1, ir.CmpSLT)
	b := buildOne(t, DotProduct, 2, ir.CmpSLT)
	ra, rb := run(t, a), run(t, b)
	if ra.Output[0].I == rb.Output[0].I {
		t.Fatal("different seeds gave identical checksums (suspicious)")
	}
}

// TestKernelsSurviveO3 compiles each kernel kind at -O3 and checks output
// equivalence plus a strict speedup (O3 must beat O0 on every kernel).
func TestKernelsSurviveO3(t *testing.T) {
	for _, kind := range allKinds() {
		mods := buildOne(t, kind, 13, ir.CmpSLT)
		ref := run(t, mods)
		opt := []*ir.Module{mods[0].Clone(), mods[1].Clone()}
		for _, m := range opt {
			if err := passes.NewManager().Run(m, passes.O3Sequence(), passes.Stats{}, false); err != nil {
				t.Fatalf("kernel %v: O3: %v", kind, err)
			}
		}
		res := run(t, opt)
		if err := machine.OutputsMatch(ref.Output, res.Output, 1e-6); err != nil {
			t.Fatalf("kernel %v: O3 miscompiled: %v", kind, err)
		}
		if res.Cycles >= ref.Cycles {
			t.Errorf("kernel %v: O3 not faster than O0: %.0f vs %.0f", kind, res.Cycles, ref.Cycles)
		}
	}
}

// TestKernelsUnderRandomSequences extends differential testing to generated
// programs — the same net the pass tests use, on much more varied IR.
func TestKernelsUnderRandomSequences(t *testing.T) {
	names := passes.Names()
	rng := rand.New(rand.NewSource(99))
	iters := 6
	if testing.Short() {
		iters = 2
	}
	for _, kind := range allKinds() {
		mods := buildOne(t, kind, int64(kind)+100, ir.CmpSLT)
		ref := run(t, mods)
		for it := 0; it < iters; it++ {
			seq := make([]string, 4+rng.Intn(20))
			for i := range seq {
				seq[i] = names[rng.Intn(len(names))]
			}
			opt := []*ir.Module{mods[0].Clone(), mods[1].Clone()}
			for _, m := range opt {
				if err := passes.NewManager().Run(m, seq, passes.Stats{}, true); err != nil {
					t.Fatalf("kernel %v seq %v: %v", kind, seq, err)
				}
			}
			res := run(t, opt)
			if err := machine.OutputsMatch(ref.Output, res.Output, 1e-6); err != nil {
				t.Fatalf("kernel %v: MISCOMPILE %v\nseq=%v\n%s", kind, err, seq, opt[0].String())
			}
		}
	}
}

func TestMultiModuleProgram(t *testing.T) {
	specs := []ModuleSpec{
		{Name: "alpha", Kernels: []KernelSpec{{Kind: DotProduct, Size: 32, Reps: 1, Unroll: 4, ExitPred: ir.CmpSLT}}, Seed: 1},
		{Name: "beta", Kernels: []KernelSpec{{Kind: CRC, Size: 32, Reps: 1, ExitPred: ir.CmpSLT}}, Seed: 2},
	}
	var mods []*ir.Module
	for _, s := range specs {
		mods = append(mods, BuildModule(s))
	}
	mods = append(mods, BuildMain("prog", []string{"alpha", "beta"}))
	res := run(t, mods)
	if len(res.Output) != 2 {
		t.Fatalf("expected 2 outputs, got %d", len(res.Output))
	}
}
