package passes

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestRegistryHas76Passes(t *testing.T) {
	if got := len(All()); got != 76 {
		t.Fatalf("registry has %d passes, want 76 (the paper's vocabulary)", got)
	}
	seen := map[string]bool{}
	for _, p := range All() {
		if p.Name == "" || p.Run == nil || p.Desc == "" {
			t.Fatalf("pass %q incompletely registered", p.Name)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate pass %q", p.Name)
		}
		seen[p.Name] = true
		if Lookup(p.Name) != p {
			t.Fatalf("lookup of %q failed", p.Name)
		}
	}
}

func TestRunRejectsUnknownPass(t *testing.T) {
	m := dotProductModule()
	if err := NewManager().Run(m, []string{"not-a-pass"}, Stats{}, false); err == nil {
		t.Fatal("expected error for unknown pass")
	}
}

func TestMem2RegPromotes(t *testing.T) {
	st, _, _ := checkSame(t, "loopsum", func() *ir.Module { return loopSumModule(32) }, "mem2reg")
	if st["mem2reg.NumPromoted"] < 3 {
		t.Fatalf("promoted = %d, want >= 3 (s, i, dead)", st["mem2reg.NumPromoted"])
	}
	if st["mem2reg.NumPHIInsert"] == 0 {
		t.Fatal("no phis inserted for loop-carried variables")
	}
}

func TestMem2RegLeavesAddressTaken(t *testing.T) {
	m := &ir.Module{Name: "esc", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	bd.NewFunction("main", ir.VoidT)
	a := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 5), a)
	bd.Call("sim.memset", ir.VoidT, a, ir.ConstInt(ir.I64T, 9), ir.ConstInt(ir.I64T, 1))
	v := bd.Load(ir.I64T, a)
	bd.Call("sim.out.i64", ir.VoidT, v)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := NewManager().Run(m, []string{"mem2reg"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["mem2reg.NumPromoted"] != 0 {
		t.Fatal("escaping alloca must not be promoted")
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestSROASplitsAggregates(t *testing.T) {
	m := &ir.Module{Name: "agg", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	bd.NewFunction("main", ir.VoidT)
	arr := bd.Alloca(ir.I64T, 4)
	for k := 0; k < 4; k++ {
		bd.Store(ir.ConstInt(ir.I64T, int64(k*k)), bd.GEP(arr, ir.ConstInt(ir.I64T, int64(k))))
	}
	s := bd.Load(ir.I64T, bd.GEP(arr, ir.ConstInt(ir.I64T, 2)))
	u := bd.Load(ir.I64T, bd.GEP(arr, ir.ConstInt(ir.I64T, 3)))
	bd.Call("sim.out.i64", ir.VoidT, bd.Bin(ir.OpAdd, s, u))
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := NewManager().Run(m, []string{"sroa"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["sroa.NumReplaced"] != 1 || st["sroa.NumPromoted"] < 4 {
		t.Fatalf("sroa stats = %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestInstCombineWideningBlocksSLP(t *testing.T) {
	// Paper Fig 5.1 / Table 5.1: mem2reg,slp-vectorizer vectorises the dot
	// product; inserting instcombine between them widens the chain and SLP
	// must refuse on a 128-bit target.
	stGood, _, _ := checkSame(t, "dot", dotProductModule, "mem2reg", "slp-vectorizer")
	if stGood["SLP.NumVectorInstructions"] == 0 {
		t.Fatalf("expected SLP to fire after mem2reg: %v", stGood)
	}
	stBad, _, _ := checkSame(t, "dot", dotProductModule, "mem2reg", "instcombine", "slp-vectorizer")
	if stBad["instcombine.NumCombined"] == 0 {
		t.Fatalf("instcombine did not fire: %v", stBad)
	}
	if stBad["SLP.NumVectorInstructions"] != 0 {
		t.Fatalf("SLP should be blocked by widened chain on 128-bit target: %v", stBad)
	}
	// On a wide target (AVX2-like), even the widened chain vectorises.
	wide := dotProductModule()
	wide.TargetVecWidth64 = 4
	stWide := applySeq(t, wide, "mem2reg", "instcombine", "slp-vectorizer")
	if stWide["SLP.NumVectorInstructions"] == 0 {
		t.Fatalf("SLP should fire on wide target despite widening: %v", stWide)
	}
}

func TestSLPOrderSensitivity(t *testing.T) {
	// slp before mem2reg: loads are behind allocas, nothing to vectorise.
	st, _, _ := checkSame(t, "dot", dotProductModule, "slp-vectorizer", "mem2reg")
	if st["SLP.NumVectorInstructions"] != 0 {
		t.Fatalf("SLP without promotion should not fire: %v", st)
	}
}

func TestInstCombineFoldsAndStrengthReduces(t *testing.T) {
	m := &ir.Module{Name: "ic", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 1)
	g.InitI = []int64{11}
	bd.NewFunction("main", ir.VoidT)
	x := bd.Load(ir.I64T, g)
	a := bd.Bin(ir.OpAdd, x, ir.ConstInt(ir.I64T, 0)) // x
	b := bd.Bin(ir.OpMul, a, ir.ConstInt(ir.I64T, 8)) // x<<3
	c := bd.Bin(ir.OpAdd, b, ir.ConstInt(ir.I64T, 2)) //
	d := bd.Bin(ir.OpAdd, c, ir.ConstInt(ir.I64T, 3)) // folds to +5
	e := bd.Bin(ir.OpSub, d, d)                       // 0
	f := bd.Bin(ir.OpAdd, d, e)                       // d
	bd.Call("sim.out.i64", ir.VoidT, f)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := NewManager().Run(m, []string{"instcombine", "dce"}, st, true); err != nil {
		t.Fatal(err)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatalf("output %d != %d", res.Output[0].I, ref.Output[0].I)
	}
	if st["instcombine.NumCombined"] < 3 {
		t.Fatalf("combined = %d", st["instcombine.NumCombined"])
	}
	s := m.String()
	if !strings.Contains(s, "shl") {
		t.Fatalf("mul by 8 not strength reduced:\n%s", s)
	}
}

func TestDCEFamilies(t *testing.T) {
	for _, pass := range []string{"dce", "adce", "bdce", "die"} {
		st, refR, optR := checkSame(t, "loopsum+"+pass,
			func() *ir.Module { return loopSumModule(24) }, "mem2reg", pass)
		_ = st
		if optR.Steps > refR.Steps {
			t.Fatalf("%s increased executed instructions", pass)
		}
	}
	// adce removes the dead loop-carried xor chain that plain dce cannot
	// (it forms a cycle through a phi).
	mA := loopSumModule(24)
	applySeq(t, mA, "mem2reg", "adce")
	mD := loopSumModule(24)
	applySeq(t, mD, "mem2reg", "dce")
	if mA.NumInstrs() > mD.NumInstrs() {
		t.Fatalf("adce (%d instrs) should be at least as strong as dce (%d)",
			mA.NumInstrs(), mD.NumInstrs())
	}
}

func TestGVNAndCSE(t *testing.T) {
	for _, pass := range []string{"early-cse", "early-cse-memssa", "gvn", "newgvn"} {
		st, _, _ := checkSame(t, "dot+"+pass, dotProductModule, "mem2reg", pass)
		_ = st
	}
	// Redundant computation: two identical squares CSE after inline+gvn.
	st, _, _ := checkSame(t, "calls", callsModule,
		"inline", "mem2reg", "instcombine", "gvn", "dce")
	if st["inline.NumInlined"] < 2 {
		t.Fatalf("inline did not fire: %v", st)
	}
}

func TestGVNPureCallsRequireFunctionAttrs(t *testing.T) {
	// Without function-attrs, calls to square are not CSE'd; with it, the
	// second call folds (this is the paper's function-attrs observability
	// example: the effect is invisible to IR-feature approaches).
	without := callsModule()
	stW := applySeq(t, without, "gvn")
	if stW["gvn.NumGVNInstr"] != 0 {
		t.Fatalf("gvn CSE'd calls without attrs: %v", stW)
	}
	with := callsModule()
	stA := applySeq(t, with, "function-attrs", "gvn")
	if stA["gvn.NumGVNInstr"] == 0 {
		t.Fatalf("gvn did not CSE pure calls after function-attrs: %v", stA)
	}
	runModule(t, with)
}

func TestSCCPFoldsConstantBranches(t *testing.T) {
	m := &ir.Module{Name: "sccp", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	bd.NewFunction("main", ir.VoidT)
	thenB := bd.NewBlock("then")
	elseB := bd.NewBlock("else")
	x := bd.Bin(ir.OpAdd, ir.ConstInt(ir.I64T, 2), ir.ConstInt(ir.I64T, 3))
	c := bd.ICmp(ir.CmpSGT, x, ir.ConstInt(ir.I64T, 4))
	bd.Br(c, thenB, elseB)
	bd.SetBlock(thenB)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 1))
	bd.Ret(nil)
	bd.SetBlock(elseB)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 0))
	bd.Ret(nil)

	st := Stats{}
	if err := NewManager().Run(m, []string{"sccp", "simplifycfg"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["sccp.NumInstRemoved"] == 0 {
		t.Fatalf("sccp inert: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != 1 {
		t.Fatal("wrong branch taken")
	}
	if len(m.Func("main").Blocks) != 1 {
		t.Fatalf("dead branch not removed: %d blocks", len(m.Func("main").Blocks))
	}
}

func TestSimplifyCFGIfConversion(t *testing.T) {
	st, refR, optR := checkSame(t, "branchy", branchyModule,
		"mem2reg", "simplifycfg", "instcombine")
	if st["simplifycfg.NumSelects"] == 0 {
		t.Fatalf("no if-conversion happened: %v", st)
	}
	if optR.Cycles >= refR.Cycles {
		t.Logf("note: if-conversion did not speed up this input (%.0f vs %.0f)", optR.Cycles, refR.Cycles)
	}
}

func TestLowerSwitch(t *testing.T) {
	st, _, _ := checkSame(t, "branchy", branchyModule, "lower-switch")
	if st["lower-switch.NumLowered"] == 0 {
		t.Fatalf("switch not lowered: %v", st)
	}
}

func TestTailCallElim(t *testing.T) {
	st, _, _ := checkSame(t, "calls", callsModule, "tailcallelim")
	if st["tailcallelim.NumEliminated"] == 0 {
		t.Fatalf("tail call not eliminated: %v", st)
	}
	// After elimination the recursion must be gone: run with tiny call depth.
	m := callsModule()
	applySeq(t, m, "tailcallelim")
	img, _ := linkFor(m)
	mc := newMachine()
	mc.MaxCallDepth = 3
	if _, err := mc.Run(img, "main"); err != nil {
		t.Fatalf("recursion not eliminated: %v", err)
	}
}

func TestLoopRotateAndLICM(t *testing.T) {
	st, refR, optR := checkSame(t, "loopsum",
		func() *ir.Module { return loopSumModule(64) },
		"mem2reg", "loop-rotate", "licm", "instcombine")
	if st["loop-rotate.NumRotated"] == 0 {
		t.Fatalf("rotation did not fire: %v", st)
	}
	if optR.Cycles >= refR.Cycles {
		t.Fatalf("rotation+licm did not help: %.0f vs %.0f", optR.Cycles, refR.Cycles)
	}
}

func TestLICMHoistsInvariantLoad(t *testing.T) {
	m := &ir.Module{Name: "licm", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("k", ir.I64T, 1)
	g.InitI = []int64{5}
	d := bd.AddGlobal("dat", ir.I64T, 32)
	d.InitI = make([]int64, 32)
	for i := range d.InitI {
		d.InitI[i] = int64(i)
	}
	bd.NewFunction("main", ir.VoidT)
	s := bd.Alloca(ir.I64T, 1)
	i := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), s)
	bd.Store(ir.ConstInt(ir.I64T, 0), i)
	h := bd.NewBlock("h")
	b := bd.NewBlock("b")
	e := bd.NewBlock("e")
	bd.Jmp(h)
	bd.SetBlock(h)
	iv := bd.Load(ir.I64T, i)
	bd.Br(bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, 32)), b, e)
	bd.SetBlock(b)
	i2 := bd.Load(ir.I64T, i)
	kv := bd.Load(ir.I64T, g) // invariant load
	x := bd.Load(ir.I64T, bd.GEP(d, i2))
	sv := bd.Load(ir.I64T, s)
	bd.Store(bd.Bin(ir.OpAdd, sv, bd.Bin(ir.OpMul, x, kv)), s)
	bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), i)
	bd.Jmp(h)
	bd.SetBlock(e)
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, s))
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := NewManager().Run(m, []string{"mem2reg", "loop-rotate", "licm"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["licm.NumHoistedLoads"] == 0 {
		t.Fatalf("invariant load not hoisted: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestLoopDeletion(t *testing.T) {
	st, _, _ := checkSame(t, "loopsum",
		func() *ir.Module { return loopSumModule(48) },
		"mem2reg", "adce", "loop-rotate", "loop-deletion")
	_ = st // the dead xor chain is adce'd; loop-deletion may or may not fire
	// Direct case: a loop computing an entirely unused value.
	m := &ir.Module{Name: "dead", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	f := bd.NewFunction("main", ir.VoidT)
	h := bd.NewBlock("h")
	bodyB := bd.NewBlock("b")
	e := bd.NewBlock("e")
	bd.Jmp(h)
	bd.SetBlock(h)
	iv := bd.Phi(ir.I64T)
	acc := bd.Phi(ir.I64T)
	bd.Br(bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, 1000)), bodyB, e)
	bd.SetBlock(bodyB)
	a2 := bd.Bin(ir.OpAdd, acc, iv)
	i2 := bd.Bin(ir.OpAdd, iv, ir.ConstInt(ir.I64T, 1))
	bd.Jmp(h)
	ir.AddIncoming(iv, ir.ConstInt(ir.I64T, 0), f.Entry())
	ir.AddIncoming(iv, i2, bodyB)
	ir.AddIncoming(acc, ir.ConstInt(ir.I64T, 0), f.Entry())
	ir.AddIncoming(acc, a2, bodyB)
	bd.SetBlock(e)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 42))
	bd.Ret(nil)

	ref := runModule(t, m)
	st2 := Stats{}
	if err := NewManager().Run(m, []string{"loop-deletion"}, st2, true); err != nil {
		t.Fatal(err)
	}
	if st2["loop-deletion.NumDeleted"] != 1 {
		t.Fatalf("dead loop not deleted: %v", st2)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
	if res.Steps >= ref.Steps {
		t.Fatal("deletion did not reduce work")
	}
}

func TestLoopIdiomMemset(t *testing.T) {
	st, refR, optR := checkSame(t, "mem", memModule,
		"mem2reg", "loop-rotate", "loop-idiom")
	if st["loop-idiom.NumMemSet"] == 0 {
		t.Fatalf("memset idiom not recognised: %v", st)
	}
	if st["loop-idiom.NumMemCpy"] == 0 {
		t.Fatalf("memcpy idiom not recognised: %v", st)
	}
	if optR.Cycles >= refR.Cycles {
		t.Fatalf("idiom did not help: %.0f vs %.0f", optR.Cycles, refR.Cycles)
	}
}

func TestLoopUnrollFull(t *testing.T) {
	st, refR, optR := checkSame(t, "small-loop",
		func() *ir.Module { return loopSumModule(12) },
		"mem2reg", "loop-rotate", "loop-unroll", "instcombine", "dce")
	if st["loop-unroll.NumCompletelyUnrolled"] == 0 {
		t.Fatalf("full unroll did not fire: %v", st)
	}
	if optR.Cycles >= refR.Cycles {
		t.Fatalf("unroll did not help: %.0f vs %.0f", optR.Cycles, refR.Cycles)
	}
}

func TestLoopUnrollPartial(t *testing.T) {
	st, _, _ := checkSame(t, "loopsum",
		func() *ir.Module { return loopSumModule(64) },
		"mem2reg", "loop-rotate", "loop-unroll")
	if st["loop-unroll.NumUnrolled"] == 0 && st["loop-unroll.NumCompletelyUnrolled"] == 0 {
		t.Fatalf("unroll inert: %v", st)
	}
}

func TestLoopVectorize(t *testing.T) {
	st, refR, optR := checkSame(t, "loopsum",
		func() *ir.Module { return loopSumModule(128) },
		"mem2reg", "adce", "loop-rotate", "indvars", "loop-vectorize")
	if st["loop-vectorize.LoopsVectorized"] == 0 {
		t.Fatalf("loop not vectorised: %v", st)
	}
	if optR.Cycles >= refR.Cycles {
		t.Fatalf("vectorisation did not help: %.0f vs %.0f", optR.Cycles, refR.Cycles)
	}
}

func TestInlinePlusSimplify(t *testing.T) {
	st, refR, optR := checkSame(t, "calls", callsModule,
		"inline", "mem2reg", "sccp", "instcombine", "gvn", "simplifycfg", "adce")
	if st["inline.NumInlined"] == 0 {
		t.Fatalf("inline inert: %v", st)
	}
	if optR.Cycles >= refR.Cycles {
		t.Fatalf("inlining did not help: %.0f vs %.0f", optR.Cycles, refR.Cycles)
	}
	_ = refR
}

func TestGlobalDCEAndStripPrototypes(t *testing.T) {
	m := callsModule()
	bd := ir.NewBuilder(m)
	dead := bd.NewFunction("dead_helper", ir.I64T)
	dead.Attrs |= ir.AttrInternal
	bd.Ret(ir.ConstInt(ir.I64T, 0))
	bd.DeclareFunction("unused_extern", ir.VoidT)
	st := applySeq(t, m, "globaldce", "strip-dead-prototypes")
	if st["globaldce.NumFunctions"] == 0 {
		t.Fatalf("dead function kept: %v", st)
	}
	if st["strip-dead-prototypes.NumDeadPrototypes"] == 0 {
		t.Fatalf("dead prototype kept: %v", st)
	}
	runModule(t, m)
}

func TestReg2MemRoundTrip(t *testing.T) {
	// mem2reg then reg2mem then mem2reg must preserve behaviour.
	checkSame(t, "branchy", branchyModule, "mem2reg", "reg2mem", "mem2reg")
}

func TestScalarizerAndExpandReductions(t *testing.T) {
	// Vectorise then scalarise: behaviour preserved, perf likely reverts.
	checkSame(t, "loopsum", func() *ir.Module { return loopSumModule(128) },
		"mem2reg", "adce", "loop-rotate", "indvars", "loop-vectorize",
		"scalarizer", "expand-reductions")
}

func TestMemcpyOptStoreRuns(t *testing.T) {
	m := &ir.Module{Name: "sr", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("buf", ir.I64T, 8)
	bd.NewFunction("main", ir.VoidT)
	for k := 0; k < 6; k++ {
		bd.Store(ir.ConstInt(ir.I64T, 9), bd.GEP(g, ir.ConstInt(ir.I64T, int64(k))))
	}
	v := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 5)))
	bd.Call("sim.out.i64", ir.VoidT, v)
	bd.Ret(nil)
	ref := runModule(t, m)
	st := Stats{}
	if err := NewManager().Run(m, []string{"memcpyopt"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["memcpyopt.NumMemSet"] == 0 {
		t.Fatalf("store run not merged: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestDivRemPairs(t *testing.T) {
	m := &ir.Module{Name: "dr", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 2)
	g.InitI = []int64{100, 7}
	bd.NewFunction("main", ir.VoidT)
	a := bd.Load(ir.I64T, g)
	b := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 1)))
	q := bd.Bin(ir.OpSDiv, a, b)
	r := bd.Bin(ir.OpSRem, a, b)
	bd.Call("sim.out.i64", ir.VoidT, q)
	bd.Call("sim.out.i64", ir.VoidT, r)
	bd.Ret(nil)
	ref := runModule(t, m)
	st := Stats{}
	if err := NewManager().Run(m, []string{"div-rem-pairs"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["div-rem-pairs.NumRecomposed"] != 1 {
		t.Fatalf("rem not recomposed: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I || res.Output[1].I != ref.Output[1].I {
		t.Fatal("output changed")
	}
}

func TestPartiallyInlineLibcalls(t *testing.T) {
	m := &ir.Module{Name: "pil", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 1)
	g.InitI = []int64{-42}
	bd.NewFunction("main", ir.VoidT)
	x := bd.Load(ir.I64T, g)
	a := bd.Call("sim.abs.i64", ir.I64T, x)
	mn := bd.Call("sim.min.i64", ir.I64T, a, ir.ConstInt(ir.I64T, 10))
	mx := bd.Call("sim.max.i64", ir.I64T, a, ir.ConstInt(ir.I64T, 10))
	bd.Call("sim.out.i64", ir.VoidT, mn)
	bd.Call("sim.out.i64", ir.VoidT, mx)
	bd.Ret(nil)
	ref := runModule(t, m)
	st := Stats{}
	if err := NewManager().Run(m, []string{"partially-inline-libcalls"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["partially-inline-libcalls.NumInlined"] != 3 {
		t.Fatalf("builtins not inlined: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I || res.Output[1].I != ref.Output[1].I {
		t.Fatalf("output changed: %v vs %v", res.Output, ref.Output)
	}
}

func TestO3PipelineOnAllPrograms(t *testing.T) {
	for name, build := range allTestModules() {
		st, refR, optR := checkSame(t, name+"@O3", build, O3Sequence()...)
		_ = st
		if optR.Cycles > refR.Cycles*1.05 {
			t.Errorf("%s: O3 slowed the program down: %.0f -> %.0f", name, refR.Cycles, optR.Cycles)
		}
	}
}

func TestLLVM10SubsetIsSmaller(t *testing.T) {
	if len(LLVM10Names()) >= len(Names()) {
		t.Fatal("LLVM10 subset not smaller")
	}
	for _, n := range LLVM10Names() {
		if Lookup(n) == nil {
			t.Fatalf("LLVM10 names unknown pass %s", n)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{}
	s.Add("a.X", 2)
	s.Add("a.X", 3)
	s.Add("b.Y", 0) // no-op
	if s["a.X"] != 5 || len(s) != 1 {
		t.Fatalf("stats = %v", s)
	}
	o := Stats{"b.Y": 7}
	s.Merge(o)
	if s["b.Y"] != 7 {
		t.Fatal("merge failed")
	}
	if k := s.Keys(); len(k) != 2 || k[0] != "a.X" {
		t.Fatalf("keys = %v", k)
	}
	if !strings.Contains(s.JSON(), "\"a.X\": 5") {
		t.Fatalf("json = %s", s.JSON())
	}
}
