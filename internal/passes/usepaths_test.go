package passes

import (
	"testing"

	"repro/internal/ir"
)

// countedLoop appends `ph: jmp loop; loop: i = phi; ...body...; br i+1 < 8,
// loop, exit` to the function under construction and returns the blocks with
// the builder positioned in ph. body runs in the loop block, after the phi.
func countedLoop(bd *ir.Builder, body func(i *ir.Instr)) (ph, loop, exit *ir.Block) {
	ph, loop, exit = bd.NewBlock("ph"), bd.NewBlock("loop"), bd.NewBlock("exit")
	bd.Jmp(ph)
	bd.SetBlock(loop)
	i := bd.Phi(ir.I64T)
	body(i)
	i2 := bd.Bin(ir.OpAdd, i, ir.ConstInt(ir.I64T, 1))
	ir.AddIncoming(i, ir.ConstInt(ir.I64T, 0), ph)
	ir.AddIncoming(i, i2, loop)
	bd.Br(bd.ICmp(ir.CmpSLT, i2, ir.ConstInt(ir.I64T, 8)), loop, exit)
	bd.SetBlock(ph)
	return ph, loop, exit
}

// B's only user is A, both sit in the preheader and A is used only in the
// loop: the backward sweep sinks A, which moves A's use of B into the loop,
// so B must sink in the same invocation. An index that froze each use's
// block when it was built sinks one.
func TestLoopSinkCascadesInOneRun(t *testing.T) {
	m := &ir.Module{Name: "sink2"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 1)
	g.InitI = []int64{5}
	bd.NewFunction("main", ir.VoidT)
	x := bd.Load(ir.I64T, g)
	var s, s2, a *ir.Instr
	ph, loop, exit := countedLoop(bd, func(*ir.Instr) {
		s = bd.Phi(ir.I64T)
		s2 = bd.Bin(ir.OpAdd, s, ir.ConstInt(ir.I64T, 0)) // operand 1 becomes A below
	})
	b := bd.Bin(ir.OpAdd, x, ir.ConstInt(ir.I64T, 1))
	a = bd.Bin(ir.OpMul, b, ir.ConstInt(ir.I64T, 2))
	bd.Jmp(loop)
	s2.Ops[1] = a
	ir.AddIncoming(s, ir.ConstInt(ir.I64T, 0), ph)
	ir.AddIncoming(s, s2, loop)
	bd.SetBlock(exit)
	bd.Call("sim.out.i64", ir.VoidT, s2)
	bd.Ret(nil)

	ref := runModule(t, m)
	st := applySeq(t, m, "loop-sink")
	if st["loop-sink.NumSunk"] != 2 {
		t.Fatalf("loop-sink.NumSunk = %d, want 2 (A, then B behind it)\n%s", st["loop-sink.NumSunk"], m.String())
	}
	if a.Parent() != loop || b.Parent() != loop {
		t.Fatalf("A and B should both be in the loop header\n%s", m.String())
	}
	if res := runModule(t, m); res.Output[0].I != ref.Output[0].I {
		t.Fatalf("output changed: %d -> %d", ref.Output[0].I, res.Output[0].I)
	}
}

// A phi use lives on its incoming edge, not in the phi's block: v feeds an
// exit-block phi over the edge leaving the loop (in the loop: sink it), w
// feeds a loop-header phi over the preheader edge (outside: keep it).
func TestLoopSinkPhiUseLivesOnItsIncomingEdge(t *testing.T) {
	m := &ir.Module{Name: "sinkphi"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 1)
	g.InitI = []int64{5}
	bd.NewFunction("main", ir.VoidT)
	x := bd.Load(ir.I64T, g)
	var s, s2 *ir.Instr
	ph, loop, exit := countedLoop(bd, func(i *ir.Instr) {
		s = bd.Phi(ir.I64T)
		s2 = bd.Bin(ir.OpAdd, s, i)
	})
	v := bd.Bin(ir.OpAdd, x, ir.ConstInt(ir.I64T, 1))
	w := bd.Bin(ir.OpAdd, x, ir.ConstInt(ir.I64T, 2))
	bd.Jmp(loop)
	ir.AddIncoming(s, w, ph)
	ir.AddIncoming(s, s2, loop)
	bd.SetBlock(exit)
	p := bd.Phi(ir.I64T)
	ir.AddIncoming(p, v, loop)
	bd.Call("sim.out.i64", ir.VoidT, bd.Bin(ir.OpAdd, p, s2))
	bd.Ret(nil)

	ref := runModule(t, m)
	st := applySeq(t, m, "loop-sink")
	if st["loop-sink.NumSunk"] != 1 || v.Parent() != loop || w.Parent() != ph {
		t.Fatalf("NumSunk = %d, v in %s, w in %s; want 1, loop, ph\n%s",
			st["loop-sink.NumSunk"], v.Parent().Name, w.Parent().Name, m.String())
	}
	if res := runModule(t, m); res.Output[0].I != ref.Output[0].I {
		t.Fatalf("output changed: %d -> %d", ref.Output[0].I, res.Output[0].I)
	}
}

// slpChainModule is a straight-line 4-term i16 dot product in SSA form; with
// extraUse one product is also printed, so that term has two uses.
func slpChainModule(extraUse bool) *ir.Module {
	m := &ir.Module{Name: "slp4", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	w := bd.AddGlobal("w", ir.I16T, 4)
	d := bd.AddGlobal("d", ir.I16T, 4)
	w.InitI = []int64{1, -2, 3, -4}
	d.InitI = []int64{8, 7, 6, 5}
	bd.NewFunction("main", ir.VoidT)
	var sum ir.Value = ir.ConstInt(ir.I64T, 0)
	var second *ir.Instr
	for i := 0; i < 4; i++ {
		wl := bd.Load(ir.I16T, bd.GEP(w, ir.ConstInt(ir.I64T, int64(i))))
		dl := bd.Load(ir.I16T, bd.GEP(d, ir.ConstInt(ir.I64T, int64(i))))
		mul := bd.Bin(ir.OpMul, bd.Cast(ir.OpSExt, wl, ir.I32T), bd.Cast(ir.OpSExt, dl, ir.I32T))
		m64 := bd.Cast(ir.OpSExt, mul, ir.I64T)
		if i == 2 {
			second = m64
		}
		sum = bd.Bin(ir.OpAdd, sum, m64)
	}
	bd.Call("sim.out.i64", ir.VoidT, sum)
	if extraUse {
		bd.Call("sim.out.i64", ir.VoidT, second)
	}
	bd.Ret(nil)
	return m
}

// A chain term with a second use cannot be folded into the vector reduction;
// with four terms that leaves three matched, below the vector width, and the
// whole chain must be left alone.
func TestSLPRejectsChainWhoseTermHasTwoUses(t *testing.T) {
	st, _, _ := checkSame(t, "slp4", func() *ir.Module { return slpChainModule(false) }, "slp-vectorizer")
	if st["SLP.NumVecReductions"] != 1 {
		t.Fatalf("control: the single-use chain should vectorise: %v", st)
	}
	st, _, _ = checkSame(t, "slp4+use", func() *ir.Module { return slpChainModule(true) }, "slp-vectorizer")
	if st["SLP.NumVecReductions"] != 0 || st["SLP.NumVectorInstructions"] != 0 {
		t.Fatalf("a term with two uses must reject the chain: %v", st)
	}
}
