package passes

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
)

// --- Shared test programs (frontend-style IR: allocas, top-test loops) ---

// dotProductModule builds the paper's Fig 5.1 kernel: an 8-term i16 dot
// product accumulated in i64, in straight-line (pre-unrolled) form.
func dotProductModule() *ir.Module {
	m := &ir.Module{Name: "dot", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	w := bd.AddGlobal("w", ir.I16T, 8)
	d := bd.AddGlobal("d", ir.I16T, 8)
	w.InitI = []int64{1, -2, 3, -4, 5, -6, 7, -8}
	d.InitI = []int64{8, 7, 6, 5, 4, 3, 2, 1}
	bd.NewFunction("main", ir.VoidT)
	acc := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), acc)
	for i := 0; i < 8; i++ {
		wp := bd.GEP(w, ir.ConstInt(ir.I64T, int64(i)))
		dp := bd.GEP(d, ir.ConstInt(ir.I64T, int64(i)))
		wl := bd.Load(ir.I16T, wp)
		dl := bd.Load(ir.I16T, dp)
		ws := bd.Cast(ir.OpSExt, wl, ir.I32T)
		ds := bd.Cast(ir.OpSExt, dl, ir.I32T)
		mul := bd.Bin(ir.OpMul, ws, ds)
		mul.Flags |= ir.FlagNoWrap
		m64 := bd.Cast(ir.OpSExt, mul, ir.I64T)
		cur := bd.Load(ir.I64T, acc)
		sum := bd.Bin(ir.OpAdd, cur, m64)
		sum.Flags |= ir.FlagNoWrap
		bd.Store(sum, acc)
	}
	out := bd.Load(ir.I64T, acc)
	bd.Call("sim.out.i64", ir.VoidT, out)
	bd.Ret(nil)
	return m
}

// loopSumModule: for(i=0;i<n;i++) s += g[i]*3; out(s), alloca form, with a
// dead loop computing an unused checksum.
func loopSumModule(n int) *ir.Module {
	m := &ir.Module{Name: "loopsum", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("data", ir.I64T, n)
	g.InitI = make([]int64, n)
	for i := range g.InitI {
		g.InitI[i] = int64(i%17 - 8)
	}
	bd.NewFunction("main", ir.VoidT)
	s := bd.Alloca(ir.I64T, 1)
	i := bd.Alloca(ir.I64T, 1)
	dead := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), s)
	bd.Store(ir.ConstInt(ir.I64T, 0), i)
	bd.Store(ir.ConstInt(ir.I64T, 1), dead)
	header := bd.NewBlock("header")
	body := bd.NewBlock("body")
	exit := bd.NewBlock("exit")
	bd.Jmp(header)

	bd.SetBlock(header)
	iv := bd.Load(ir.I64T, i)
	c := bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, int64(n)))
	bd.Br(c, body, exit)

	bd.SetBlock(body)
	i2 := bd.Load(ir.I64T, i)
	p := bd.GEP(g, i2)
	x := bd.Load(ir.I64T, p)
	x3 := bd.Bin(ir.OpMul, x, ir.ConstInt(ir.I64T, 3))
	sv := bd.Load(ir.I64T, s)
	bd.Store(bd.Bin(ir.OpAdd, sv, x3), s)
	dv := bd.Load(ir.I64T, dead)
	bd.Store(bd.Bin(ir.OpXor, dv, i2), dead)
	bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), i)
	bd.Jmp(header)

	bd.SetBlock(exit)
	fin := bd.Load(ir.I64T, s)
	bd.Call("sim.out.i64", ir.VoidT, fin)
	bd.Ret(nil)
	return m
}

// callsModule: helper functions exercising inline/tailcallelim/function-attrs
// and pure-call GVN.
func callsModule() *ir.Module {
	m := &ir.Module{Name: "calls", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)

	// square(x) = x*x  (pure, tiny -> inline, readnone -> gvn)
	sq := bd.NewFunction("square", ir.I64T, ir.I64T)
	sq.Attrs |= ir.AttrInternal
	bd.Ret(bd.Bin(ir.OpMul, sq.Params[0], sq.Params[0]))

	// fact_acc(n, acc): tail recursive factorial.
	fa := bd.NewFunction("fact_acc", ir.I64T, ir.I64T, ir.I64T)
	fa.Attrs |= ir.AttrInternal
	rec := bd.NewBlock("rec")
	base := bd.NewBlock("base")
	c := bd.ICmp(ir.CmpSLE, fa.Params[0], ir.ConstInt(ir.I64T, 1))
	bd.Br(c, base, rec)
	bd.SetBlock(base)
	bd.Ret(fa.Params[1])
	bd.SetBlock(rec)
	n1 := bd.Bin(ir.OpSub, fa.Params[0], ir.ConstInt(ir.I64T, 1))
	ac := bd.Bin(ir.OpMul, fa.Params[1], fa.Params[0])
	r := bd.Call("fact_acc", ir.I64T, n1, ac)
	bd.Ret(r)

	// main: out(square(7) + square(7)); out(fact(10))
	bd.NewFunction("main", ir.VoidT)
	a := bd.Call("square", ir.I64T, ir.ConstInt(ir.I64T, 7))
	b := bd.Call("square", ir.I64T, ir.ConstInt(ir.I64T, 7))
	sum := bd.Bin(ir.OpAdd, a, b)
	bd.Call("sim.out.i64", ir.VoidT, sum)
	fr := bd.Call("fact_acc", ir.I64T, ir.ConstInt(ir.I64T, 10), ir.ConstInt(ir.I64T, 1))
	bd.Call("sim.out.i64", ir.VoidT, fr)
	bd.Ret(nil)
	return m
}

// branchyModule: diamonds and switches for CFG passes.
func branchyModule() *ir.Module {
	m := &ir.Module{Name: "branchy", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("in", ir.I64T, 16)
	g.InitI = []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	bd.NewFunction("main", ir.VoidT)
	acc := bd.Alloca(ir.I64T, 1)
	i := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), acc)
	bd.Store(ir.ConstInt(ir.I64T, 0), i)
	header := bd.NewBlock("header")
	body := bd.NewBlock("body")
	thenB := bd.NewBlock("then")
	elseB := bd.NewBlock("else")
	join := bd.NewBlock("join")
	sw1 := bd.NewBlock("sw1")
	sw2 := bd.NewBlock("sw2")
	swd := bd.NewBlock("swd")
	tail := bd.NewBlock("tail")
	exit := bd.NewBlock("exit")
	bd.Jmp(header)

	bd.SetBlock(header)
	iv := bd.Load(ir.I64T, i)
	c := bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, 16))
	bd.Br(c, body, exit)

	bd.SetBlock(body)
	i2 := bd.Load(ir.I64T, i)
	x := bd.Load(ir.I64T, bd.GEP(g, i2))
	big := bd.ICmp(ir.CmpSGT, x, ir.ConstInt(ir.I64T, 4))
	bd.Br(big, thenB, elseB)

	bd.SetBlock(thenB)
	t1 := bd.Bin(ir.OpMul, x, ir.ConstInt(ir.I64T, 2))
	bd.Jmp(join)

	bd.SetBlock(elseB)
	e1 := bd.Bin(ir.OpAdd, x, ir.ConstInt(ir.I64T, 10))
	bd.Jmp(join)

	bd.SetBlock(join)
	ph := bd.Phi(ir.I64T)
	ir.AddIncoming(ph, t1, thenB)
	ir.AddIncoming(ph, e1, elseB)
	mod := bd.Bin(ir.OpSRem, ph, ir.ConstInt(ir.I64T, 3))
	bd.Switch(mod, swd, []int64{0, 1}, []*ir.Block{sw1, sw2})

	bd.SetBlock(sw1)
	a1 := bd.Bin(ir.OpAdd, ph, ir.ConstInt(ir.I64T, 100))
	bd.Store(a1, acc)
	bd.Jmp(tail)
	bd.SetBlock(sw2)
	a2 := bd.Bin(ir.OpSub, ph, ir.ConstInt(ir.I64T, 50))
	bd.Store(a2, acc)
	bd.Jmp(tail)
	bd.SetBlock(swd)
	bd.Store(ph, acc)
	bd.Jmp(tail)

	bd.SetBlock(tail)
	av := bd.Load(ir.I64T, acc)
	bd.Call("sim.out.i64", ir.VoidT, av)
	bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), i)
	bd.Jmp(header)

	bd.SetBlock(exit)
	bd.Ret(nil)
	return m
}

// memModule: memset-able and memcpy-able loops plus two fusable loops.
func memModule() *ir.Module {
	m := &ir.Module{Name: "mem", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	a := bd.AddGlobal("a", ir.I64T, 64)
	b := bd.AddGlobal("b", ir.I64T, 64)
	cg := bd.AddGlobal("c", ir.I64T, 64)
	for gi, g := range []*ir.Global{a, b, cg} {
		g.InitI = make([]int64, 64)
		for i := range g.InitI {
			g.InitI[i] = int64((i*7 + gi) % 23)
		}
	}
	bd.NewFunction("main", ir.VoidT)
	i := bd.Alloca(ir.I64T, 1)

	mkLoop := func(name string, body func(iv ir.Value)) {
		bd.Store(ir.ConstInt(ir.I64T, 0), i)
		header := bd.NewBlock(name + "_h")
		bodyB := bd.NewBlock(name + "_b")
		exit := bd.NewBlock(name + "_e")
		bd.Jmp(header)
		bd.SetBlock(header)
		iv := bd.Load(ir.I64T, i)
		c := bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, 64))
		bd.Br(c, bodyB, exit)
		bd.SetBlock(bodyB)
		i2 := bd.Load(ir.I64T, i)
		body(i2)
		bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), i)
		bd.Jmp(header)
		bd.SetBlock(exit)
	}
	// memset idiom: a[i] = 7
	mkLoop("set", func(iv ir.Value) {
		bd.Store(ir.ConstInt(ir.I64T, 7), bd.GEP(a, iv))
	})
	// memcpy idiom: b[i] = a[i]
	mkLoop("cpy", func(iv ir.Value) {
		bd.Store(bd.Load(ir.I64T, bd.GEP(a, iv)), bd.GEP(b, iv))
	})
	// two fusable compute loops over c
	mkLoop("f1", func(iv ir.Value) {
		x := bd.Load(ir.I64T, bd.GEP(cg, iv))
		bd.Store(bd.Bin(ir.OpAdd, x, ir.ConstInt(ir.I64T, 1)), bd.GEP(cg, iv))
	})
	mkLoop("f2", func(iv ir.Value) {
		x := bd.Load(ir.I64T, bd.GEP(b, iv))
		y := bd.Bin(ir.OpShl, x, ir.ConstInt(ir.I64T, 1))
		bd.Store(y, bd.GEP(b, iv))
	})
	// checksum
	sum := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), sum)
	mkLoop("chk", func(iv ir.Value) {
		va := bd.Load(ir.I64T, bd.GEP(a, iv))
		vb := bd.Load(ir.I64T, bd.GEP(b, iv))
		vc := bd.Load(ir.I64T, bd.GEP(cg, iv))
		s := bd.Load(ir.I64T, sum)
		t := bd.Bin(ir.OpAdd, s, va)
		t = bd.Bin(ir.OpAdd, t, vb)
		t = bd.Bin(ir.OpAdd, t, vc)
		bd.Store(t, sum)
	})
	fin := bd.Load(ir.I64T, sum)
	bd.Call("sim.out.i64", ir.VoidT, fin)
	bd.Ret(nil)
	return m
}

// allTestModules returns builders for differential testing.
func allTestModules() map[string]func() *ir.Module {
	return map[string]func() *ir.Module{
		"dot":     dotProductModule,
		"loopsum": func() *ir.Module { return loopSumModule(96) },
		"calls":   callsModule,
		"branchy": branchyModule,
		"mem":     memModule,
	}
}

// runModule links and executes a module, failing the test on error.
func runModule(t *testing.T, m *ir.Module) *machine.Result {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify %s: %v\n%s", m.Name, err, m.String())
	}
	img, err := machine.Link(m)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res, err := machine.New(machine.CortexA57()).Run(img, "main")
	if err != nil {
		t.Fatalf("run %s: %v\n%s", m.Name, err, m.String())
	}
	return res
}

// applySeq applies a pass sequence with per-pass verification.
func applySeq(t *testing.T, m *ir.Module, seq ...string) Stats {
	t.Helper()
	st := Stats{}
	if err := NewManager().Run(m, seq, st, true); err != nil {
		t.Fatalf("apply %v: %v", seq, err)
	}
	return st
}

// checkSame asserts that the optimised module produces the same output.
func checkSame(t *testing.T, name string, build func() *ir.Module, seq ...string) (Stats, *machine.Result, *machine.Result) {
	t.Helper()
	ref := runModule(t, build())
	opt := build()
	st := applySeq(t, opt, seq...)
	res := runModule(t, opt)
	if err := machine.OutputsMatch(ref.Output, res.Output, 1e-6); err != nil {
		t.Fatalf("%s: %v after %v\n%s", name, err, seq, opt.String())
	}
	return st, ref, res
}
