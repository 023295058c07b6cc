package passes

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
)

// buildTwoLoops: two adjacent equal-trip single-block-able loops for fusion,
// with an IV multiplication for lsr and a strided load for prefetching.
func buildTwoLoops() *ir.Module {
	m := &ir.Module{Name: "t2", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	a := bd.AddGlobal("a", ir.I64T, 64)
	b := bd.AddGlobal("b", ir.I64T, 64)
	a.InitI = make([]int64, 64)
	b.InitI = make([]int64, 64)
	for i := 0; i < 64; i++ {
		a.InitI[i] = int64(i % 13)
		b.InitI[i] = int64(i % 7)
	}
	bd.NewFunction("main", ir.VoidT)
	iv := bd.Alloca(ir.I64T, 1)
	mk := func(tag string, body func(i ir.Value)) {
		bd.Store(ir.ConstInt(ir.I64T, 0), iv)
		h := bd.NewBlock(tag + "_h")
		bb := bd.NewBlock(tag + "_b")
		e := bd.NewBlock(tag + "_e")
		bd.Jmp(h)
		bd.SetBlock(h)
		i := bd.Load(ir.I64T, iv)
		bd.Br(bd.ICmp(ir.CmpSLT, i, ir.ConstInt(ir.I64T, 64)), bb, e)
		bd.SetBlock(bb)
		i2 := bd.Load(ir.I64T, iv)
		body(i2)
		n := bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1))
		n.Flags |= ir.FlagNoWrap
		bd.Store(n, iv)
		bd.Jmp(h)
		bd.SetBlock(e)
	}
	mk("l1", func(i ir.Value) {
		p := bd.GEP(a, i)
		v := bd.Load(ir.I64T, p)
		bd.Store(bd.Bin(ir.OpAdd, v, ir.ConstInt(ir.I64T, 1)), p)
	})
	mk("l2", func(i ir.Value) {
		p := bd.GEP(b, i)
		v := bd.Load(ir.I64T, p)
		bd.Store(bd.Bin(ir.OpShl, v, ir.ConstInt(ir.I64T, 1)), p)
	})
	// Third loop: IV multiplication (lsr target), strided load.
	sum := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), sum)
	mk("l3", func(i ir.Value) {
		off := bd.Bin(ir.OpMul, i, ir.ConstInt(ir.I64T, 1))
		_ = off
		x := bd.Load(ir.I64T, bd.GEP(a, i))
		s := bd.Load(ir.I64T, sum)
		bd.Store(bd.Bin(ir.OpAdd, s, x), sum)
	})
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, sum))
	bd.Ret(nil)
	return m
}

func TestLoopFusionFires(t *testing.T) {
	st, refR, optR := checkSame(t, "twoloops", buildTwoLoops,
		"mem2reg", "loop-rotate", "loop-fusion")
	if st["loop-fusion.NumFused"] == 0 {
		t.Fatalf("fusion did not fire: %v", st)
	}
	if optR.Cycles >= refR.Cycles {
		t.Fatalf("fusion did not help: %.0f vs %.0f", optR.Cycles, refR.Cycles)
	}
}

func TestLSRFires(t *testing.T) {
	// lsr rewrites mul(iv, c) in single-block loops; build one with c=3.
	m := &ir.Module{Name: "lsr", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 256)
	g.InitI = make([]int64, 256)
	bd.NewFunction("main", ir.VoidT)
	s := bd.Alloca(ir.I64T, 1)
	i := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), s)
	bd.Store(ir.ConstInt(ir.I64T, 0), i)
	h := bd.NewBlock("h")
	bb := bd.NewBlock("b")
	e := bd.NewBlock("e")
	bd.Jmp(h)
	bd.SetBlock(h)
	iv := bd.Load(ir.I64T, i)
	bd.Br(bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, 64)), bb, e)
	bd.SetBlock(bb)
	i2 := bd.Load(ir.I64T, i)
	off := bd.Bin(ir.OpMul, i2, ir.ConstInt(ir.I64T, 3))
	x := bd.Load(ir.I64T, bd.GEP(g, off))
	sv := bd.Load(ir.I64T, s)
	bd.Store(bd.Bin(ir.OpAdd, sv, x), s)
	bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), i)
	bd.Jmp(h)
	bd.SetBlock(e)
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, s))
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"mem2reg", "loop-rotate", "lsr", "dce"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["lsr.NumStrengthReduced"] == 0 {
		t.Fatalf("lsr did not fire: %v\n%s", st, m.String())
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestLoopDataPrefetchFires(t *testing.T) {
	st, _, _ := checkSame(t, "twoloops", buildTwoLoops,
		"mem2reg", "loop-rotate", "loop-data-prefetch")
	if st["loop-data-prefetch.NumPrefetches"] == 0 {
		t.Fatalf("prefetch did not fire: %v", st)
	}
}

func TestUnswitchFires(t *testing.T) {
	// Loop with an invariant branch inside.
	m := &ir.Module{Name: "us", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 64)
	g.InitI = make([]int64, 64)
	flagG := bd.AddGlobal("flag", ir.I64T, 1)
	flagG.InitI = []int64{1}
	bd.NewFunction("main", ir.VoidT)
	fl := bd.Load(ir.I64T, flagG)
	cond := bd.ICmp(ir.CmpSGT, fl, ir.ConstInt(ir.I64T, 0))
	i := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), i)
	h := bd.NewBlock("h")
	bb := bd.NewBlock("b")
	tB := bd.NewBlock("t")
	fB := bd.NewBlock("f")
	j := bd.NewBlock("j")
	e := bd.NewBlock("e")
	bd.Jmp(h)
	bd.SetBlock(h)
	iv := bd.Load(ir.I64T, i)
	bd.Br(bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, 64)), bb, e)
	bd.SetBlock(bb)
	i2 := bd.Load(ir.I64T, i)
	bd.Br(cond, tB, fB)
	bd.SetBlock(tB)
	bd.Store(i2, bd.GEP(g, i2))
	bd.Jmp(j)
	bd.SetBlock(fB)
	bd.Store(ir.ConstInt(ir.I64T, -1), bd.GEP(g, i2))
	bd.Jmp(j)
	bd.SetBlock(j)
	bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), i)
	bd.Jmp(h)
	bd.SetBlock(e)
	out := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 37)))
	bd.Call("sim.out.i64", ir.VoidT, out)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"simple-loop-unswitch"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["simple-loop-unswitch.NumUnswitched"] == 0 {
		t.Fatalf("unswitch did not fire: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestMergeICmpChains(t *testing.T) {
	m := &ir.Module{Name: "mic", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	a := bd.AddGlobal("a", ir.I64T, 8)
	b := bd.AddGlobal("b", ir.I64T, 8)
	a.InitI = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	b.InitI = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	bd.NewFunction("main", ir.VoidT)
	var cond ir.Value
	for k := 0; k < 6; k++ {
		va := bd.Load(ir.I64T, bd.GEP(a, ir.ConstInt(ir.I64T, int64(k))))
		vb := bd.Load(ir.I64T, bd.GEP(b, ir.ConstInt(ir.I64T, int64(k))))
		eq := bd.ICmp(ir.CmpEQ, va, vb)
		if cond == nil {
			cond = eq
		} else {
			cond = bd.Bin(ir.OpAnd, cond, eq)
		}
	}
	z := bd.Cast(ir.OpZExt, cond, ir.I64T)
	bd.Call("sim.out.i64", ir.VoidT, z)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"mergeicmps", "dce"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["mergeicmps.NumMerged"] == 0 {
		t.Fatalf("mergeicmps did not fire: %v\n%s", st, m.String())
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
	if !strings.Contains(m.String(), "sim.memcmp") {
		t.Fatal("memcmp call not emitted")
	}
}

func TestArgPromotionAndDeadArgElim(t *testing.T) {
	m := &ir.Module{Name: "ap", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 4)
	g.InitI = []int64{10, 20, 30, 40}
	// helper(p ptr, unused i64) = *p * 2, loads p in entry.
	hf := bd.NewFunction("helper", ir.I64T, ir.PtrT, ir.I64T)
	hf.Attrs |= ir.AttrInternal
	v := bd.Load(ir.I64T, hf.Params[0])
	bd.Ret(bd.Bin(ir.OpMul, v, ir.ConstInt(ir.I64T, 2)))
	bd.NewFunction("main", ir.VoidT)
	r1 := bd.Call("helper", ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 1)), ir.ConstInt(ir.I64T, 99))
	bd.Call("sim.out.i64", ir.VoidT, r1)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"deadargelim", "argpromotion"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["deadargelim.NumArgumentsEliminated"] == 0 {
		t.Fatalf("dead arg kept: %v", st)
	}
	if st["argpromotion.NumArgumentsPromoted"] == 0 {
		t.Fatalf("pointer arg not promoted: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestMergeFunc(t *testing.T) {
	m := &ir.Module{Name: "mf", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	for _, name := range []string{"dupA", "dupB"} {
		f := bd.NewFunction(name, ir.I64T, ir.I64T)
		f.Attrs |= ir.AttrInternal
		bd.Ret(bd.Bin(ir.OpAdd, f.Params[0], ir.ConstInt(ir.I64T, 5)))
	}
	bd.NewFunction("main", ir.VoidT)
	a := bd.Call("dupA", ir.I64T, ir.ConstInt(ir.I64T, 1))
	b := bd.Call("dupB", ir.I64T, ir.ConstInt(ir.I64T, 2))
	bd.Call("sim.out.i64", ir.VoidT, bd.Bin(ir.OpAdd, a, b))
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"mergefunc", "globaldce"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["mergefunc.NumMerged"] != 1 {
		t.Fatalf("functions not merged: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
	if len(m.Funcs) != 2 { // main + one surviving dup
		t.Fatalf("duplicate not removed: %d funcs", len(m.Funcs))
	}
}

// Regression: mergefunc's key left out switch case values, alloca element
// counts and constant types, so it merged functions that differ only there,
// and a call to the one it deleted ran the other's body.
func TestMergeFuncKeepsFunctionsDifferingOutsideOldKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(bd *ir.Builder, f *ir.Function, variant int)
	}{
		{"switch cases", func(bd *ir.Builder, f *ir.Function, variant int) {
			hit, miss := bd.NewBlock("hit"), bd.NewBlock("miss")
			bd.Switch(f.Params[0], miss, []int64{int64(1 + variant)}, []*ir.Block{hit})
			bd.SetBlock(hit)
			bd.Ret(ir.ConstInt(ir.I64T, 10))
			bd.SetBlock(miss)
			bd.Ret(ir.ConstInt(ir.I64T, 20))
		}},
		{"alloca count", func(bd *ir.Builder, f *ir.Function, variant int) {
			p := bd.Alloca(ir.I64T, 1+3*variant)
			bd.Store(f.Params[0], p)
			bd.Ret(bd.Load(ir.I64T, p))
		}},
		{"constant type", func(bd *ir.Builder, f *ir.Function, variant int) {
			c := ir.ConstInt([]ir.Type{ir.I8T, ir.I32T}[variant], -1)
			bd.Ret(bd.Bin(ir.OpAdd, f.Params[0], bd.Cast(ir.OpZExt, c, ir.I64T)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &ir.Module{Name: "mf", TargetVecWidth64: 2}
			bd := ir.NewBuilder(m)
			for v, name := range []string{"fnA", "fnB"} {
				f := bd.NewFunction(name, ir.I64T, ir.I64T)
				f.Attrs |= ir.AttrInternal
				tc.body(bd, f, v)
			}
			bd.NewFunction("main", ir.VoidT)
			bd.Call("sim.out.i64", ir.VoidT, bd.Call("fnA", ir.I64T, ir.ConstInt(ir.I64T, 1)))
			bd.Call("sim.out.i64", ir.VoidT, bd.Call("fnB", ir.I64T, ir.ConstInt(ir.I64T, 1)))
			bd.Ret(nil)

			ref := runModule(t, m)
			st := Stats{}
			if err := Apply(m, []string{"mergefunc", "globaldce"}, st, true); err != nil {
				t.Fatal(err)
			}
			if st["mergefunc.NumMerged"] != 0 || len(m.Funcs) != 3 {
				t.Fatalf("functions merged: %v, %d funcs", st, len(m.Funcs))
			}
			if res := runModule(t, m); !reflect.DeepEqual(res.Output, ref.Output) {
				t.Fatalf("output changed: %v -> %v", ref.Output, res.Output)
			}
		})
	}
}

func TestGlobalOptConstMerge(t *testing.T) {
	m := &ir.Module{Name: "go", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g1 := bd.AddGlobal("k1", ir.I64T, 2)
	g1.InitI = []int64{7, 8}
	g2 := bd.AddGlobal("k2", ir.I64T, 2)
	g2.InitI = []int64{7, 8}
	bd.NewFunction("main", ir.VoidT)
	a := bd.Load(ir.I64T, bd.GEP(g1, ir.ConstInt(ir.I64T, 1)))
	b := bd.Load(ir.I64T, g2)
	bd.Call("sim.out.i64", ir.VoidT, bd.Bin(ir.OpAdd, a, b))
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"globalopt", "constmerge", "dce"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["globalopt.NumMarkedConst"] < 2 || st["globalopt.NumLoadsFolded"] < 2 {
		t.Fatalf("globalopt inert: %v", st)
	}
	if st["constmerge.NumMerged"] != 1 {
		t.Fatalf("constmerge inert: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestFloat2IntAndSLSR(t *testing.T) {
	m := &ir.Module{Name: "f2i", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 2)
	g.InitI = []int64{6, 7}
	bd.NewFunction("main", ir.VoidT)
	a := bd.Load(ir.I64T, g)
	b := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 1)))
	fa := bd.Cast(ir.OpSIToFP, a, ir.F64T)
	fb := bd.Cast(ir.OpSIToFP, b, ir.F64T)
	fm := bd.Bin(ir.OpFMul, fa, fb)
	back := bd.Cast(ir.OpFPToSI, fm, ir.I64T)
	// slsr shape: x*5 then x*6.
	m5 := bd.Bin(ir.OpMul, a, ir.ConstInt(ir.I64T, 5))
	m6 := bd.Bin(ir.OpMul, a, ir.ConstInt(ir.I64T, 6))
	s := bd.Bin(ir.OpAdd, bd.Bin(ir.OpAdd, back, m5), m6)
	bd.Call("sim.out.i64", ir.VoidT, s)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"float2int", "slsr", "dce"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["float2int.NumConverted"] == 0 {
		t.Fatalf("float2int inert: %v", st)
	}
	if st["slsr.NumRewritten"] == 0 {
		t.Fatalf("slsr inert: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestGVNHoistSinkAndFlatten(t *testing.T) {
	st, _, _ := checkSame(t, "branchy", branchyModule,
		"mem2reg", "gvn-hoist", "gvn-sink", "flattencfg")
	_ = st // firing depends on shape; semantics preservation is the check
	// Direct flattencfg shape: if (a) { if (b) X } else Y
	m := &ir.Module{Name: "fl", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 2)
	g.InitI = []int64{5, 9}
	bd.NewFunction("main", ir.VoidT)
	a := bd.Load(ir.I64T, g)
	b := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 1)))
	c1 := bd.ICmp(ir.CmpSGT, a, ir.ConstInt(ir.I64T, 3))
	mid := bd.NewBlock("mid")
	tb := bd.NewBlock("tb")
	fb := bd.NewBlock("fb")
	bd.Br(c1, mid, fb)
	bd.SetBlock(mid)
	c2 := bd.ICmp(ir.CmpSGT, b, ir.ConstInt(ir.I64T, 3))
	bd.Br(c2, tb, fb)
	bd.SetBlock(tb)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 1))
	bd.Ret(nil)
	bd.SetBlock(fb)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 0))
	bd.Ret(nil)

	ref := runModule(t, m)
	st2 := Stats{}
	if err := Apply(m, []string{"flattencfg"}, st2, true); err != nil {
		t.Fatal(err)
	}
	if st2["flattencfg.NumFlattened"] == 0 {
		t.Fatalf("flattencfg inert: %v\n%s", st2, m.String())
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestBreakCritEdgesAndMergeReturn(t *testing.T) {
	// A critical edge: branching block with two successors, one of which has
	// two predecessors.
	build := func() *ir.Module {
		m := &ir.Module{Name: "ce", TargetVecWidth64: 2}
		bd := ir.NewBuilder(m)
		g := bd.AddGlobal("g", ir.I64T, 1)
		g.InitI = []int64{5}
		f := bd.NewFunction("main", ir.VoidT)
		mid := bd.NewBlock("mid")
		join := bd.NewBlock("join")
		x := bd.Load(ir.I64T, g)
		c := bd.ICmp(ir.CmpSGT, x, ir.ConstInt(ir.I64T, 3))
		bd.Br(c, mid, join) // entry->join is critical (entry 2 succs, join 2 preds)
		bd.SetBlock(mid)
		bd.Jmp(join)
		bd.SetBlock(join)
		phi := bd.Phi(ir.I64T)
		ir.AddIncoming(phi, ir.ConstInt(ir.I64T, 1), f.Entry())
		ir.AddIncoming(phi, ir.ConstInt(ir.I64T, 2), mid)
		bd.Call("sim.out.i64", ir.VoidT, phi)
		bd.Ret(nil)
		return m
	}
	st, _, _ := checkSame(t, "critedge", build, "break-crit-edges")
	if st["break-crit-edges.NumBroken"] == 0 {
		t.Fatalf("no critical edges broken: %v", st)
	}
	// calls module has multi-return fact_acc.
	st2, _, _ := checkSame(t, "calls", callsModule, "mergereturn")
	if st2["mergereturn.NumMerged"] == 0 {
		t.Fatalf("returns not merged: %v", st2)
	}
}

func TestCallsiteSplitting(t *testing.T) {
	m := &ir.Module{Name: "cs", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 1)
	g.InitI = []int64{4}
	bd.NewFunction("main", ir.VoidT)
	tB := bd.NewBlock("t")
	fB := bd.NewBlock("f")
	callB := bd.NewBlock("call")
	end := bd.NewBlock("end")
	x := bd.Load(ir.I64T, g)
	c := bd.ICmp(ir.CmpSGT, x, ir.ConstInt(ir.I64T, 0))
	bd.Br(c, tB, fB)
	bd.SetBlock(tB)
	bd.Jmp(callB)
	bd.SetBlock(fB)
	bd.Jmp(callB)
	bd.SetBlock(callB)
	phi := bd.Phi(ir.I64T)
	ir.AddIncoming(phi, ir.ConstInt(ir.I64T, 1), tB)
	ir.AddIncoming(phi, ir.ConstInt(ir.I64T, 2), fB)
	bd.Call("sim.out.i64", ir.VoidT, phi)
	bd.Jmp(end)
	bd.SetBlock(end)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"callsite-splitting", "sccp", "simplifycfg"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["callsite-splitting.NumSplit"] == 0 {
		t.Fatalf("callsite not split: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestDSEFires(t *testing.T) {
	m := &ir.Module{Name: "dse", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 2)
	bd.NewFunction("main", ir.VoidT)
	bd.Store(ir.ConstInt(ir.I64T, 1), g) // dead: overwritten
	bd.Store(ir.ConstInt(ir.I64T, 2), g)
	v := bd.Load(ir.I64T, g)
	bd.Call("sim.out.i64", ir.VoidT, v)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"dse"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["dse.NumFastStores"] == 0 {
		t.Fatalf("dead store kept: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestSinkAndSpeculate(t *testing.T) {
	st, _, _ := checkSame(t, "branchy", branchyModule,
		"mem2reg", "sink", "speculative-execution")
	_ = st
	// sink: value computed before a branch, used in one arm only.
	m := &ir.Module{Name: "snk", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 2)
	g.InitI = []int64{3, -1}
	bd.NewFunction("main", ir.VoidT)
	x := bd.Load(ir.I64T, g)
	heavy := bd.Bin(ir.OpMul, x, ir.ConstInt(ir.I64T, 1234567))
	flag := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 1)))
	c := bd.ICmp(ir.CmpSGT, flag, ir.ConstInt(ir.I64T, 0))
	tB := bd.NewBlock("t")
	fB := bd.NewBlock("f")
	bd.Br(c, tB, fB)
	bd.SetBlock(tB)
	bd.Call("sim.out.i64", ir.VoidT, heavy)
	bd.Ret(nil)
	bd.SetBlock(fB)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 0))
	bd.Ret(nil)

	ref := runModule(t, m)
	st2 := Stats{}
	if err := Apply(m, []string{"sink"}, st2, true); err != nil {
		t.Fatal(err)
	}
	if st2["sink.NumSunk"] == 0 {
		t.Fatalf("sink inert: %v", st2)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

func TestLoadStoreVectorizerFires(t *testing.T) {
	st, _, _ := checkSame(t, "dot", dotProductModule,
		"mem2reg", "load-store-vectorizer")
	if st["load-store-vectorizer.NumVectorized"] == 0 {
		t.Fatalf("load runs not vectorised: %v", st)
	}
}

func TestVectorCombineFoldsExtractOfInsert(t *testing.T) {
	m := &ir.Module{Name: "vc", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	bd.NewFunction("main", ir.VoidT)
	vt := ir.Vec(ir.I64, 4)
	z := bd.B.Append(&ir.Instr{Op: ir.OpBroadcast, Ty: vt, Ops: []ir.Value{ir.ConstInt(ir.I64T, 0)}})
	ins := bd.B.Append(&ir.Instr{Op: ir.OpInsertElement, Ty: vt,
		Ops: []ir.Value{z, ir.ConstInt(ir.I64T, 9), ir.ConstInt(ir.I64T, 2)}})
	ext := bd.B.Append(&ir.Instr{Op: ir.OpExtractElement, Ty: ir.I64T,
		Ops: []ir.Value{ins, ir.ConstInt(ir.I64T, 2)}})
	bd.Call("sim.out.i64", ir.VoidT, ext)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"vector-combine", "dce"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["vector-combine.NumCombined"] == 0 {
		t.Fatalf("vector-combine inert: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != 9 || ref.Output[0].I != 9 {
		t.Fatal("wrong value")
	}
}

func TestIPSCCPPropagatesConstArgs(t *testing.T) {
	m := &ir.Module{Name: "ips", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	f := bd.NewFunction("scale", ir.I64T, ir.I64T, ir.I64T)
	f.Attrs |= ir.AttrInternal
	bd.Ret(bd.Bin(ir.OpMul, f.Params[0], f.Params[1]))
	bd.NewFunction("main", ir.VoidT)
	g := bd.AddGlobal("g", ir.I64T, 1)
	g.InitI = []int64{11}
	x := bd.Load(ir.I64T, g)
	// Both call sites pass the same constant for param 1.
	a := bd.Call("scale", ir.I64T, x, ir.ConstInt(ir.I64T, 4))
	b := bd.Call("scale", ir.I64T, bd.Bin(ir.OpAdd, x, ir.ConstInt(ir.I64T, 1)), ir.ConstInt(ir.I64T, 4))
	bd.Call("sim.out.i64", ir.VoidT, bd.Bin(ir.OpAdd, a, b))
	bd.Ret(nil)

	ref := runModule(t, m)
	st := Stats{}
	if err := Apply(m, []string{"ipsccp"}, st, true); err != nil {
		t.Fatal(err)
	}
	if st["ipsccp.NumArgsReplaced"] == 0 {
		t.Fatalf("const arg not propagated: %v", st)
	}
	res := runModule(t, m)
	if res.Output[0].I != ref.Output[0].I {
		t.Fatal("output changed")
	}
}

// TestExprTableResetEmptiesEverySlot: reset pops the keys still in the log —
// the outer scopes' keys when a pass panicked mid-walk — and that empties
// every slot of the pooled table, growth and nested scopes included.
func TestExprTableResetEmptiesEverySlot(t *testing.T) {
	var tab exprTable
	key := func(i int) instrKey { return instrKey{a: int32(i), b: int32(i % 7), op: ir.OpAdd, kind: ir.I64} }
	n := 0
	add := func(k int) {
		for ; k > 0; k-- {
			tab.add(key(n), n)
			n++
		}
	}
	add(40) // the outermost scope, grown past the table's first size
	inner := tab.mark()
	add(100)
	deeper := tab.mark()
	add(10)
	tab.pop(deeper)
	add(30)
	tab.pop(inner)
	add(20) // left in the log, with the outermost 40, as a panic leaves them
	if live := tab.mark(); live != 60 {
		t.Fatalf("%d keys live before the reset, want 60", live)
	}
	if got := tab.find(key(n - 1)); got != n-1 {
		t.Fatalf("find of a live key = %d, want %d", got, n-1)
	}
	tab.reset()
	if len(tab.log) != 0 {
		t.Fatalf("%d keys left in the log", len(tab.log))
	}
	for i, s := range tab.slots {
		if s.id != 0 {
			t.Fatalf("slot %d of %d still holds id %d", i, len(tab.slots), s.id-1)
		}
	}
	for i := 0; i < n; i++ {
		if got := tab.find(key(i)); got != -1 {
			t.Fatalf("find(key %d) = %d after reset, want a miss", i, got)
		}
	}
}
