package machine

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
)

// buildSumProgram: main() { s = 0; for i in 0..n { s += g[i] }; out(s) }
func buildSumProgram(n int) *ir.Module {
	m := &ir.Module{Name: "sum"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("data", ir.I64T, n)
	g.InitI = make([]int64, n)
	for i := 0; i < n; i++ {
		g.InitI[i] = int64(i + 1)
	}
	bd.NewFunction("main", ir.VoidT)
	sVar := bd.Alloca(ir.I64T, 1)
	iVar := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), sVar)
	bd.Store(ir.ConstInt(ir.I64T, 0), iVar)
	header := bd.NewBlock("header")
	body := bd.NewBlock("body")
	exit := bd.NewBlock("exit")
	bd.Jmp(header)

	bd.SetBlock(header)
	iv := bd.Load(ir.I64T, iVar)
	cond := bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, int64(n)))
	bd.Br(cond, body, exit)

	bd.SetBlock(body)
	i2 := bd.Load(ir.I64T, iVar)
	addr := bd.GEP(g, i2)
	x := bd.Load(ir.I64T, addr)
	s := bd.Load(ir.I64T, sVar)
	bd.Store(bd.Bin(ir.OpAdd, s, x), sVar)
	bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), iVar)
	bd.Jmp(header)

	bd.SetBlock(exit)
	fin := bd.Load(ir.I64T, sVar)
	bd.Call("sim.out.i64", ir.VoidT, fin)
	bd.Ret(nil)
	return m
}

func runMain(t *testing.T, m *ir.Module) *Result {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	img, err := Link(m)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res, err := New(CortexA57()).Run(img, "main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestSumLoop(t *testing.T) {
	res := runMain(t, buildSumProgram(100))
	if len(res.Output) != 1 || res.Output[0].I != 5050 {
		t.Fatalf("output = %+v, want 5050", res.Output)
	}
	if res.Cycles <= 0 || res.Steps <= 0 {
		t.Fatal("no cost accounted")
	}
}

func TestDeterministicCycles(t *testing.T) {
	m := buildSumProgram(50)
	a := runMain(t, m)
	b := runMain(t, m)
	if a.Cycles != b.Cycles || a.Steps != b.Steps {
		t.Fatalf("non-deterministic execution: %v/%v vs %v/%v", a.Cycles, a.Steps, b.Cycles, b.Steps)
	}
}

func TestVectorOps(t *testing.T) {
	// main: load <4 x i64> from g, add to itself, reduce, out.
	m := &ir.Module{Name: "vec"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("v", ir.I64T, 4)
	g.InitI = []int64{1, 2, 3, 4}
	bd.NewFunction("main", ir.VoidT)
	vt := ir.Vec(ir.I64, 4)
	v := bd.Load(vt, g)
	dbl := bd.Bin(ir.OpAdd, v, v)
	red := bd.B.Append(&ir.Instr{Op: ir.OpVecReduceAdd, Ty: ir.I64T, Ops: []ir.Value{dbl}})
	bd.Call("sim.out.i64", ir.VoidT, red)
	bd.Ret(nil)

	res := runMain(t, m)
	if res.Output[0].I != 20 {
		t.Fatalf("vector reduce = %d, want 20", res.Output[0].I)
	}
}

func TestVectorFloatAndBroadcast(t *testing.T) {
	m := &ir.Module{Name: "vecf"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("v", ir.F64T, 4)
	g.InitF = []float64{1.5, 2.5, 3.5, 4.5}
	bd.NewFunction("main", ir.VoidT)
	vt := ir.Vec(ir.F64, 4)
	v := bd.Load(vt, g)
	two := bd.B.Append(&ir.Instr{Op: ir.OpBroadcast, Ty: vt, Ops: []ir.Value{ir.ConstFloat(ir.F64T, 2)}})
	prod := bd.Bin(ir.OpFMul, v, two)
	red := bd.B.Append(&ir.Instr{Op: ir.OpVecReduceAdd, Ty: ir.F64T, Ops: []ir.Value{prod}})
	bd.Call("sim.out.f64", ir.VoidT, red)
	bd.Ret(nil)

	res := runMain(t, m)
	if math.Abs(res.Output[0].F-24) > 1e-9 {
		t.Fatalf("float vector = %v, want 24", res.Output[0].F)
	}
}

// buildFibModules: mod a: fib(n); mod b: main calls fib(10) and outputs it.
func buildFibModules() (ma, mb *ir.Module) {
	ma = &ir.Module{Name: "a"}
	bd := ir.NewBuilder(ma)
	fib := bd.NewFunction("fib", ir.I64T, ir.I64T)
	n := fib.Params[0]
	rec := bd.NewBlock("rec")
	base := bd.NewBlock("base")
	c := bd.ICmp(ir.CmpSLT, n, ir.ConstInt(ir.I64T, 2))
	bd.Br(c, base, rec)
	bd.SetBlock(base)
	bd.Ret(n)
	bd.SetBlock(rec)
	n1 := bd.Bin(ir.OpSub, n, ir.ConstInt(ir.I64T, 1))
	n2 := bd.Bin(ir.OpSub, n, ir.ConstInt(ir.I64T, 2))
	f1 := bd.Call("fib", ir.I64T, n1)
	f2 := bd.Call("fib", ir.I64T, n2)
	bd.Ret(bd.Bin(ir.OpAdd, f1, f2))

	mb = &ir.Module{Name: "b"}
	bd2 := ir.NewBuilder(mb)
	bd2.DeclareFunction("fib", ir.I64T, ir.I64T)
	bd2.NewFunction("main", ir.VoidT)
	r := bd2.Call("fib", ir.I64T, ir.ConstInt(ir.I64T, 10))
	bd2.Call("sim.out.i64", ir.VoidT, r)
	bd2.Ret(nil)
	return ma, mb
}

func TestCallAndRecursionAcrossModules(t *testing.T) {
	img, err := Link(buildFibModules())
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Zen3()).Run(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0].I != 55 {
		t.Fatalf("fib(10) = %d, want 55", res.Output[0].I)
	}
}

// buildPhiLoop: SSA loop: for(i=0,s=0; i<5; i++) s+=i*i; out(s) => 30
func buildPhiLoop() *ir.Module {
	m := &ir.Module{Name: "phi"}
	bd := ir.NewBuilder(m)
	f := bd.NewFunction("main", ir.VoidT)
	header := bd.NewBlock("header")
	body := bd.NewBlock("body")
	exit := bd.NewBlock("exit")
	bd.Jmp(header)

	bd.SetBlock(header)
	i := bd.Phi(ir.I64T)
	s := bd.Phi(ir.I64T)
	cond := bd.ICmp(ir.CmpSLT, i, ir.ConstInt(ir.I64T, 5))
	bd.Br(cond, body, exit)

	bd.SetBlock(body)
	sq := bd.Bin(ir.OpMul, i, i)
	s2 := bd.Bin(ir.OpAdd, s, sq)
	i2 := bd.Bin(ir.OpAdd, i, ir.ConstInt(ir.I64T, 1))
	bd.Jmp(header)

	ir.AddIncoming(i, ir.ConstInt(ir.I64T, 0), f.Entry())
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.ConstInt(ir.I64T, 0), f.Entry())
	ir.AddIncoming(s, s2, body)

	bd.SetBlock(exit)
	bd.Call("sim.out.i64", ir.VoidT, s)
	bd.Ret(nil)
	return m
}

func TestPhiExecution(t *testing.T) {
	res := runMain(t, buildPhiLoop())
	if res.Output[0].I != 30 {
		t.Fatalf("phi loop = %d, want 30", res.Output[0].I)
	}
}

func TestSwitchExecution(t *testing.T) {
	m := &ir.Module{Name: "sw"}
	bd := ir.NewBuilder(m)
	bd.NewFunction("main", ir.VoidT)
	def := bd.NewBlock("def")
	c1 := bd.NewBlock("c1")
	c2 := bd.NewBlock("c2")
	bd.Switch(ir.ConstInt(ir.I64T, 7), def, []int64{3, 7}, []*ir.Block{c1, c2})
	bd.SetBlock(def)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 0))
	bd.Ret(nil)
	bd.SetBlock(c1)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 1))
	bd.Ret(nil)
	bd.SetBlock(c2)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 2))
	bd.Ret(nil)

	res := runMain(t, m)
	if res.Output[0].I != 2 {
		t.Fatalf("switch took wrong arm: %d", res.Output[0].I)
	}
}

func TestBuiltins(t *testing.T) {
	m := &ir.Module{Name: "bi"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("buf", ir.I64T, 8)
	bd.NewFunction("main", ir.VoidT)
	bd.Call("sim.memset", ir.VoidT, g, ir.ConstInt(ir.I64T, 9), ir.ConstInt(ir.I64T, 8))
	x := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 5)))
	a := bd.Call("sim.abs.i64", ir.I64T, ir.ConstInt(ir.I64T, -4))
	mn := bd.Call("sim.min.i64", ir.I64T, x, a)
	mx := bd.Call("sim.max.i64", ir.I64T, x, a)
	bd.Call("sim.out.i64", ir.VoidT, mn)
	bd.Call("sim.out.i64", ir.VoidT, mx)
	sq := bd.Call("sim.sqrt", ir.F64T, ir.ConstFloat(ir.F64T, 16))
	bd.Call("sim.out.f64", ir.VoidT, sq)
	bd.Ret(nil)

	res := runMain(t, m)
	if res.Output[0].I != 4 || res.Output[1].I != 9 || res.Output[2].F != 4 {
		t.Fatalf("builtins gave %+v", res.Output)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	m := &ir.Module{Name: "dz"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("z", ir.I64T, 1)
	bd.NewFunction("main", ir.VoidT)
	z := bd.Load(ir.I64T, g)
	q := bd.Bin(ir.OpSDiv, ir.ConstInt(ir.I64T, 10), z)
	bd.Call("sim.out.i64", ir.VoidT, q)
	bd.Ret(nil)
	img, _ := Link(m)
	_, err := New(CortexA57()).Run(img, "main")
	if !errors.Is(err, ErrDivByZero) {
		t.Fatalf("err = %v, want div by zero", err)
	}
}

func TestSegfaultTraps(t *testing.T) {
	m := &ir.Module{Name: "sf"}
	bd := ir.NewBuilder(m)
	bd.NewFunction("main", ir.VoidT)
	bad := bd.GEP(ir.ConstInt(ir.I64T, 0), ir.ConstInt(ir.I64T, -5))
	v := bd.Load(ir.I64T, bad)
	bd.Call("sim.out.i64", ir.VoidT, v)
	bd.Ret(nil)
	img, _ := Link(m)
	_, err := New(CortexA57()).Run(img, "main")
	if !errors.Is(err, ErrSegfault) {
		t.Fatalf("err = %v, want segfault", err)
	}
}

func TestStepLimit(t *testing.T) {
	m := &ir.Module{Name: "inf"}
	bd := ir.NewBuilder(m)
	bd.NewFunction("main", ir.VoidT)
	loop := bd.NewBlock("loop")
	bd.Jmp(loop)
	bd.SetBlock(loop)
	bd.Jmp(loop)
	img, _ := Link(m)
	mc := New(CortexA57())
	mc.MaxSteps = 1000
	_, err := mc.Run(img, "main")
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestCacheModelChargesMisses(t *testing.T) {
	// Strided access over a large array must cost more than repeated access
	// to one element, for the same instruction count.
	build := func(stride int64) *ir.Module {
		m := &ir.Module{Name: "cache"}
		bd := ir.NewBuilder(m)
		g := bd.AddGlobal("big", ir.I64T, 64*1024)
		bd.NewFunction("main", ir.VoidT)
		iVar := bd.Alloca(ir.I64T, 1)
		bd.Store(ir.ConstInt(ir.I64T, 0), iVar)
		header := bd.NewBlock("header")
		body := bd.NewBlock("body")
		exit := bd.NewBlock("exit")
		bd.Jmp(header)
		bd.SetBlock(header)
		i := bd.Load(ir.I64T, iVar)
		c := bd.ICmp(ir.CmpSLT, i, ir.ConstInt(ir.I64T, 4096))
		bd.Br(c, body, exit)
		bd.SetBlock(body)
		i2 := bd.Load(ir.I64T, iVar)
		off := bd.Bin(ir.OpMul, i2, ir.ConstInt(ir.I64T, stride))
		masked := bd.Bin(ir.OpAnd, off, ir.ConstInt(ir.I64T, 64*1024-1))
		p := bd.GEP(g, masked)
		v := bd.Load(ir.I64T, p)
		_ = v
		bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), iVar)
		bd.Jmp(header)
		bd.SetBlock(exit)
		bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 1))
		bd.Ret(nil)
		return m
	}
	dense := runMain(t, build(0))    // always same element
	sparse := runMain(t, build(129)) // stride defeating the line cache
	if sparse.Cycles <= dense.Cycles {
		t.Fatalf("cache model inert: sparse %v <= dense %v", sparse.Cycles, dense.Cycles)
	}
}

func TestMeasurementNoiseAndMedian(t *testing.T) {
	m := buildSumProgram(64)
	img, err := Link(m)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasurement(New(CortexA57()), 0.01, 42)
	t1, res, err := ms.TimeOnce(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := ms.TimeOnce(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	if t1 == t2 {
		t.Fatal("noise model inert")
	}
	if math.Abs(t1-res.Cycles)/res.Cycles > 0.1 {
		t.Fatal("noise too large")
	}
	med, _, err := ms.TimeMedian(img, "main", 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-res.Cycles)/res.Cycles > 0.05 {
		t.Fatalf("median too far from truth: %v vs %v", med, res.Cycles)
	}
}

func TestOutputsMatch(t *testing.T) {
	a := []OutputEvent{{I: 1}, {IsFloat: true, F: 1.0}}
	b := []OutputEvent{{I: 1}, {IsFloat: true, F: 1.0 + 1e-9}}
	if err := OutputsMatch(a, b, 1e-6); err != nil {
		t.Fatalf("tolerant match failed: %v", err)
	}
	c := []OutputEvent{{I: 2}, {IsFloat: true, F: 1.0}}
	if err := OutputsMatch(a, c, 1e-6); err == nil {
		t.Fatal("mismatch not detected")
	}
	if err := OutputsMatch(a, a[:1], 1e-6); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestICachePenalty(t *testing.T) {
	// A program with huge static size but identical dynamic behaviour should
	// cost more. Build main with lots of dead straight-line code guarded by
	// an always-false branch... simpler: compare profiles via called set by
	// padding main with unreachable blocks that are still part of its size.
	small := buildSumProgram(32)
	big := buildSumProgram(32)
	bd := ir.NewBuilder(big)
	f := big.Func("main")
	bd.F = f
	// Add many dead blocks (reachable never; still counted in footprint).
	prevExit := f.Blocks[len(f.Blocks)-1]
	_ = prevExit
	pad := bd.NewBlock("pad")
	bd.SetBlock(pad)
	acc := ir.Value(ir.ConstInt(ir.I64T, 1))
	for i := 0; i < 20000; i++ {
		acc = bd.Bin(ir.OpAdd, acc, ir.ConstInt(ir.I64T, 1))
	}
	bd.Ret(nil)

	imgS, _ := Link(small)
	imgB, _ := Link(big)
	mc := New(CortexA57())
	rs, err := mc.Run(imgS, "main")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := mc.Run(imgB, "main")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Cycles <= rs.Cycles {
		t.Fatalf("icache penalty inert: %v <= %v", rb.Cycles, rs.Cycles)
	}
}

// resultsEqual compares every Result field bit for bit.
func resultsEqual(a, b *Result) bool {
	if math.Float64bits(a.Cycles) != math.Float64bits(b.Cycles) || a.Steps != b.Steps ||
		!reflect.DeepEqual(a.Ret, b.Ret) || len(a.Output) != len(b.Output) ||
		len(a.FuncCycles) != len(b.FuncCycles) {
		return false
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return false
		}
	}
	for fn, c := range a.FuncCycles {
		if d, ok := b.FuncCycles[fn]; !ok || math.Float64bits(c) != math.Float64bits(d) {
			return false
		}
	}
	return true
}

// TestImageProgramIsPerProfile: instruction costs are baked into the program
// an Image keeps, so a machine with another profile must not be served it.
func TestImageProgramIsPerProfile(t *testing.T) {
	link := func() *Image {
		img, err := Link(buildFibModules())
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	run := func(m *Machine, img *Image) *Result {
		res, err := m.Run(img, "main")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	arm, x86 := New(CortexA57()), New(Zen3())
	wantARM, wantX86 := run(arm, link()), run(x86, link())
	if wantARM.Cycles == wantX86.Cycles {
		t.Fatalf("profiles cost the program alike (%v cycles): the test cannot tell them apart", wantARM.Cycles)
	}
	img := link()
	for i, c := range []struct {
		m    *Machine
		want *Result
	}{{arm, wantARM}, {x86, wantX86}, {arm, wantARM}} {
		if got := run(c.m, img); !resultsEqual(got, c.want) {
			t.Fatalf("run %d on %s: %v cycles, a fresh image gives %v", i, c.m.Prof.Name, got.Cycles, c.want.Cycles)
		}
	}
}

// TestUnlowerableImageIsAnError: shapes the lowerer refuses are an error from
// Run, not a silent switch of engines; the tree-walking oracle still executes
// them the way it always did.
func TestUnlowerableImageIsAnError(t *testing.T) {
	entryPhi := &ir.Module{Name: "entryphi"}
	bd := ir.NewBuilder(entryPhi)
	bd.NewFunction("main", ir.VoidT)
	bd.Call("sim.out.i64", ir.VoidT, bd.Phi(ir.I64T))
	bd.Ret(nil)

	midPhi := &ir.Module{Name: "midphi"}
	bd = ir.NewBuilder(midPhi)
	bd.NewFunction("main", ir.VoidT)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 1))
	bd.Phi(ir.I64T)
	bd.Ret(nil)

	// The unterminated block is unreachable, so the tree-walker never falls
	// through it.
	noTerm := &ir.Module{Name: "noterm"}
	bd = ir.NewBuilder(noTerm)
	bd.NewFunction("main", ir.VoidT)
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 7))
	bd.Ret(nil)
	bd.SetBlock(bd.NewBlock("dead"))
	bd.Call("sim.out.i64", ir.VoidT, ir.ConstInt(ir.I64T, 8))

	for _, c := range []struct {
		m        *ir.Module
		verifies bool   // ir.Verify accepts the module
		treeErr  string // "" = the tree-walker runs it and outputs 7
	}{
		// No incoming edge matches the entry block's no predecessor, so Verify
		// passes it; the tree-walker faults on entering the block.
		{entryPhi, true, "has no incoming"},
		{midPhi, false, "cannot execute op"},
		{noTerm, false, ""},
	} {
		if err := ir.Verify(c.m); (err == nil) != c.verifies {
			t.Fatalf("%s: ir.Verify = %v", c.m.Name, err)
		}
		img, err := Link(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(CortexA57()).Run(img, "main"); !errors.Is(err, ErrUnlowerable) {
			t.Fatalf("%s: Run = %v, want ErrUnlowerable", c.m.Name, err)
		}
		walker := New(CortexA57())
		walker.TreeWalk = true
		res, err := walker.Run(img, "main")
		switch {
		case c.treeErr != "":
			if err == nil || !strings.Contains(err.Error(), c.treeErr) {
				t.Fatalf("%s under TreeWalk: err = %v, want %q", c.m.Name, err, c.treeErr)
			}
		case err != nil || len(res.Output) != 1 || res.Output[0].I != 7:
			t.Fatalf("%s under TreeWalk: %+v, %v", c.m.Name, res, err)
		}
	}
}

// TestConcurrentRunsOfOneImage: one freshly linked image run from several
// goroutines is assembled once and gives every caller the same result.
func TestConcurrentRunsOfOneImage(t *testing.T) {
	img, err := Link(buildSumProgram(200))
	if err != nil {
		t.Fatal(err)
	}
	m := New(CortexA57())
	const n = 8
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = m.Run(img, "main")
		}()
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !resultsEqual(results[i], results[0]) {
			t.Fatalf("goroutine %d: %+v, goroutine 0: %+v", i, results[i], results[0])
		}
	}
	// The first Run assembles the image, lowering each of its (private)
	// functions; the other n-1 reuse the assembled program.
	nf := int64(len(img.Funcs))
	if st := m.BcCounters(); st.LoweredFuncs != nf || st.CodeMisses != nf || st.CodeHits != (n-1)*nf {
		t.Fatalf("%d runs of a %d-function image: %d functions assembled, %d lowered, %d reused", n, nf, st.LoweredFuncs, st.CodeMisses, st.CodeHits)
	}
}

// TestExecutionStatesStayOnTheMachine: the execution state is kept on a free
// list across garbage collections (a sync.Pool drops its content every
// second cycle) — the machine's for the tree-walker, the process's for the
// bytecode engine — and its 16 MiB+ memory slab on the process's, so after
// warm-up a machine allocates no new slab, and at most GOMAXPROCS states stay
// idle however many goroutines ran at once.
func TestExecutionStatesStayOnTheMachine(t *testing.T) {
	img, err := Link(buildSumProgram(50))
	if err != nil {
		t.Fatal(err)
	}
	for _, treeWalk := range []bool{false, true} {
		m := New(CortexA57())
		m.TreeWalk = treeWalk
		run := func() {
			res, err := m.Run(img, "main")
			if err != nil {
				t.Error(err)
				return
			}
			ReleaseResult(res)
		}
		var wg sync.WaitGroup
		for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ { // warm-up, concurrent
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		_, before := PoolCounters()
		for i := 0; i < 20; i++ {
			runtime.GC()
			runtime.GC()
			run()
		}
		if _, after := PoolCounters(); after != before {
			t.Fatalf("TreeWalk=%v: %d new execution states after warm-up", treeWalk, after-before)
		}
		kept := len(bcStates.free)
		if treeWalk {
			kept = len(m.statePool.free)
		}
		if kept < 1 || kept > runtime.GOMAXPROCS(0) {
			t.Fatalf("TreeWalk=%v: %d idle states kept, want 1..GOMAXPROCS", treeWalk, kept)
		}
		if !treeWalk {
			// A new machine (a new evaluator's) runs on the states the first
			// one left idle.
			m = New(CortexA57())
			run()
			if _, after := PoolCounters(); after != before {
				t.Fatalf("a second machine allocated %d new execution states", after-before)
			}
			// Nor does a tree-walking one: both engines share the slabs.
			m = New(CortexA57())
			m.TreeWalk = true
			run()
			if _, after := PoolCounters(); after != before {
				t.Fatalf("a tree-walking machine allocated %d new slabs after bytecode runs", after-before)
			}
		}
	}
}
