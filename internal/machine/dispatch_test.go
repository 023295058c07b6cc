package machine_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
)

// This file holds the dispatch loop's own invariants: each frame carries the
// image's patched constant pool, steps and cycles kept in locals reach the
// shared runCore before anything else reads or adds to them, and errors raised
// mid-function leave both engines agreeing.

// recursiveGlobalModule is one module whose recursive function walk has the
// global table in its constant pool: walk(n) outputs table's address and
// word n&3 before and after recursing on n-1, so every frame reads the
// relocated pool entry.
func recursiveGlobalModule() *ir.Module {
	m := &ir.Module{Name: "walker"}
	bd := ir.NewBuilder(m)
	table := bd.AddGlobal("table", ir.I64T, 4)
	table.InitI = []int64{11, 22, 33, 44}
	walk := bd.NewFunction("walk", ir.I64T, ir.I64T)
	n := walk.Params[0]
	base := bd.NewBlock("base")
	rec := bd.NewBlock("rec")
	bd.Br(bd.ICmp(ir.CmpSLT, n, ir.ConstInt(ir.I64T, 1)), base, rec)
	bd.SetBlock(base)
	bd.Ret(bd.Load(ir.I64T, table))
	bd.SetBlock(rec)
	slot := bd.GEP(table, bd.Bin(ir.OpAnd, n, ir.ConstInt(ir.I64T, 3)))
	bd.Call("sim.out.i64", ir.VoidT, table)
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, slot))
	r := bd.Call("walk", ir.I64T, bd.Bin(ir.OpSub, n, ir.ConstInt(ir.I64T, 1)))
	bd.Call("sim.out.i64", ir.VoidT, table)
	bd.Store(r, slot)
	bd.Ret(bd.Bin(ir.OpAdd, r, bd.Load(ir.I64T, slot)))
	bd.NewFunction("main", ir.VoidT)
	bd.Call("sim.out.i64", ir.VoidT, bd.Call("walk", ir.I64T, ir.ConstInt(ir.I64T, 6)))
	bd.Ret(nil)
	return m
}

// TestConstantPoolPerFrameAndImage: a recursive function's constant pool holds
// a relocated global. Every frame must read the address this image gives the
// global, in two images that reuse the function's lowered body but place the
// global at different addresses, and in the first image again after the
// second was assembled.
func TestConstantPoolPerFrameAndImage(t *testing.T) {
	e := newEngines(machine.CortexA57())
	walker := compacted(recursiveGlobalModule())
	var addrs []int64
	images := make([]*machine.Image, 2)
	for i, nGlobals := range []int{0, 3} {
		mods := []*ir.Module{compacted(craftedTuned(nGlobals, 0)), walker}
		res, err := e.check(t, fmt.Sprintf("table after %d globals", nGlobals), mods)
		if err != nil {
			t.Fatal(err)
		}
		// Six frames each output the address twice.
		n := 0
		for _, ev := range res.Output {
			if ev.I == res.Output[0].I {
				n++
			}
		}
		if n != 12 {
			t.Fatalf("table's address %d appears %d times in %+v, want 12", res.Output[0].I, n, res.Output)
		}
		addrs = append(addrs, res.Output[0].I)
		images[i] = cowImage(t, mods)
	}
	if addrs[0] != 0 || addrs[1] != 9 {
		t.Fatalf("table's addresses %v, want [0 9]", addrs)
	}
	// Both images assembled from one kept body; the first runs again last.
	want := make([]*machine.Result, 2)
	for i, img := range images {
		res, err := e.memo.Run(img, "main")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	again, err := e.memo.Run(images[0], "main")
	requireIdentical(t, "first image after the second", again, want[0], err, nil)
}

// mixedAccessModule interleaves scalar and vector loads and stores with a
// sim.memcpy and a call in one function, so the dispatch loop's local cycle
// count meets chargeMem and the callee's charges in every order.
func mixedAccessModule() *ir.Module {
	m := &ir.Module{Name: "mixed"}
	bd := ir.NewBuilder(m)
	a := bd.AddGlobal("a", ir.I64T, 64)
	a.InitI = make([]int64, 64)
	for i := range a.InitI {
		a.InitI[i] = int64(3*i + 1)
	}
	b := bd.AddGlobal("b", ir.I64T, 64)
	f := bd.AddGlobal("f", ir.F64T, 8)
	f.InitF = []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5}
	at := func(g *ir.Global, i int64) ir.Value { return bd.GEP(g, ir.ConstInt(ir.I64T, i)) }

	helper := bd.NewFunction("helper", ir.I64T, ir.I64T)
	bd.Store(helper.Params[0], at(b, 40))
	bd.Ret(bd.Bin(ir.OpMul, bd.Load(ir.I64T, at(a, 33)), helper.Params[0]))

	vi, vf := ir.Vec(ir.I64, 4), ir.Vec(ir.F64, 4)
	bd.NewFunction("main", ir.VoidT)
	s0 := bd.Load(ir.I64T, at(a, 0))
	v0 := bd.Load(vi, at(a, 4))
	bd.Store(s0, at(b, 0))
	bd.Store(v0, at(b, 4))
	s1 := bd.Load(ir.I64T, at(a, 17))
	bd.Store(bd.Bin(ir.OpAdd, s0, s1), at(b, 17))
	bd.Call("sim.memcpy", ir.VoidT, at(b, 24), at(a, 24), ir.ConstInt(ir.I64T, 12))
	h := bd.Call("helper", ir.I64T, s1)
	fv := bd.Load(vf, f)
	bd.Store(bd.Load(ir.F64T, at(f, 5)), at(f, 1))
	bd.Store(bd.Bin(ir.OpFAdd, fv, fv), at(f, 4))
	v1 := bd.Load(vi, at(b, 24))
	bd.Store(h, at(b, 2))
	bd.Store(bd.Bin(ir.OpAdd, v1, v0), at(b, 48))
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, at(b, 50)))
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, at(b, 40)))
	bd.Call("sim.out.i64", ir.VoidT, bd.B.Append(&ir.Instr{Op: ir.OpVecReduceAdd, Ty: ir.I64T, Ops: []ir.Value{v1}}))
	bd.Call("sim.out.f64", ir.VoidT, bd.Load(ir.F64T, at(f, 6)))
	bd.Ret(nil)
	return m
}

// TestMixedAccessChargesMatchTreeWalk: Cycles (bitwise), Steps and FuncCycles
// of a function that mixes the scalar fast path with chargeMem's vector
// accesses, a builtin and a call must equal the tree-walker's.
func TestMixedAccessChargesMatchTreeWalk(t *testing.T) {
	for _, prof := range []machine.Profile{machine.CortexA57(), machine.Zen3()} {
		res, err := newEngines(prof).check(t, prof.Name, []*ir.Module{compacted(mixedAccessModule())})
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if len(res.Output) != 4 || res.Output[1].I != 52 {
			t.Fatalf("%s: output %+v", prof.Name, res.Output)
		}
	}
}

// divAfterWorkModule adds to mixedAccessModule a function divide that divides
// by a zero it loads after a call, with instructions left to run after it.
func divAfterWorkModule() *ir.Module {
	m := mixedAccessModule()
	m.Name = "divider"
	bd := ir.NewBuilder(m)
	zero := bd.AddGlobal("zero", ir.I64T, 1)
	bd.NewFunction("divide", ir.VoidT)
	h := bd.Call("helper", ir.I64T, ir.ConstInt(ir.I64T, 5))
	q := bd.Bin(ir.OpSDiv, h, bd.Load(ir.I64T, zero))
	bd.Call("sim.out.i64", ir.VoidT, q)
	bd.Ret(nil)
	return m
}

// TestMidFunctionErrorsMatchTreeWalk: a step limit reached anywhere in a run —
// swept over every limit up to one past the run's length, so it lands in
// callees, after builtins and before returns — and a division by zero after
// a call must give the tree-walker's error text, and every run the limit lets
// finish the tree-walker's Result.
func TestMidFunctionErrorsMatchTreeWalk(t *testing.T) {
	img := privateImage(t, []*ir.Module{compacted(divAfterWorkModule())})
	bc, tw := machine.New(machine.CortexA57()), machine.New(machine.CortexA57())
	tw.TreeWalk = true

	_, err := bc.Run(img, "divide")
	_, twErr := tw.Run(img, "divide")
	if !errors.Is(err, machine.ErrDivByZero) {
		t.Fatalf("divide: err = %v, want division by zero", err)
	}
	requireIdentical(t, "divide", nil, nil, err, twErr)

	full, err := tw.Run(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	for limit := int64(1); limit <= full.Steps+1; limit++ {
		bc.MaxSteps, tw.MaxSteps = limit, limit
		got, err := bc.Run(img, "main")
		want, twErr := tw.Run(img, "main")
		requireIdentical(t, fmt.Sprintf("MaxSteps %d of %d", limit, full.Steps), got, want, err, twErr)
		if finished := limit >= full.Steps; finished != (err == nil) {
			t.Fatalf("MaxSteps %d of %d: err = %v", limit, full.Steps, err)
		}
	}
}

// fuzzProgram is one benchmark built for one platform: its pristine modules
// and each module at -O3, the state every untuned module of a measurement is
// linked in.
type fuzzProgram struct {
	pristine, o3 []*ir.Module
}

var (
	fuzzMu       sync.Mutex
	fuzzPrograms = map[[2]int]*fuzzProgram{}
)

// fuzzBenchmarks are the 15 benchmarks FuzzBytecodeMatchesTree picks from.
var fuzzBenchmarks = sync.OnceValue(func() []*bench.Benchmark {
	return append(bench.CBench(), bench.SPEC()...)
})

// programFor builds benchmark bi for platform pi once per process.
func programFor(t *testing.T, bi, pi int, plat bench.Platform) *fuzzProgram {
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	if p := fuzzPrograms[[2]int{bi, pi}]; p != nil {
		return p
	}
	b := fuzzBenchmarks()[bi]
	p := &fuzzProgram{pristine: b.Build(0, plat.Prof.VecWidth64)}
	for _, pm := range p.pristine {
		ir.CompactModule(pm)
		m := pm.Clone()
		if err := passes.NewManager().Run(m, passes.O3Sequence(), passes.Stats{}, false); err != nil {
			t.Fatalf("%s/%s: O3: %v", b.Name, pm.Name, err)
		}
		p.o3 = append(p.o3, compacted(m))
	}
	fuzzPrograms[[2]int{bi, pi}] = p
	return p
}

// fuzzBench is the FuzzBytecodeMatchesTree byte that picks benchmark name.
func fuzzBench(name string) uint8 {
	for i, b := range fuzzBenchmarks() {
		if b.Name == name {
			return uint8(i)
		}
	}
	panic("no benchmark " + name)
}

// fuzzSeq encodes a pass sequence as FuzzBytecodeMatchesTree decodes it.
func fuzzSeq(seq ...string) []byte {
	var out []byte
	for _, name := range seq {
		for i, n := range passes.Names() {
			if n == name {
				out = append(out, byte(i))
			}
		}
	}
	return out
}

// FuzzBytecodeMatchesTree checks the bytecode engine against the tree-walker
// (contract 3(b)) on the programs a tuning run measures. An input picks one
// of the 15 benchmarks, a platform (x86: Zen3, else CortexA57), the module to
// tune and a pass sequence (one pass per byte, at most 120); the other
// modules stay at -O3. A candidate the passes reject is skipped, as the
// evaluator rejects it; every other image must give bit-identical Results or
// identical errors on both engines.
func FuzzBytecodeMatchesTree(f *testing.F) {
	f.Add(fuzzBench("consumer_jpeg"), false, uint8(0), fuzzSeq("mem2reg", "sroa", "loop-rotate", "licm", "loop-unroll", "instcombine", "simplifycfg", "gvn"))
	f.Add(fuzzBench("consumer_jpeg"), false, uint8(1), fuzzSeq("sroa", "loop-vectorize", "slp-vectorizer", "instcombine", "adce"))
	f.Add(fuzzBench("525.x264_r"), true, uint8(0), fuzzSeq("mem2reg", "loop-simplify", "loop-rotate", "indvars", "loop-vectorize", "simplifycfg"))
	f.Add(fuzzBench("525.x264_r"), true, uint8(3), fuzzSeq("inline", "sroa", "jump-threading", "lower-switch", "loop-unroll", "dse"))
	f.Add(fuzzBench("telecom_gsm"), true, uint8(1), []byte{})
	f.Add(fuzzBench("505.mcf_r"), false, uint8(2), fuzzSeq("tailcallelim", "mergereturn", "early-cse-memssa", "loop-idiom"))
	vocab := passes.Names()
	platforms := []bench.Platform{bench.ARM(), bench.X86()}
	var ms [2][2]*machine.Machine // per platform: bytecode, tree-walker
	for pi, plat := range platforms {
		ms[pi][0] = machine.New(plat.Prof)
		ms[pi][1] = machine.New(plat.Prof)
		ms[pi][1].TreeWalk = true
	}
	f.Fuzz(func(t *testing.T, bi uint8, x86 bool, module uint8, in []byte) {
		pi := 0
		if x86 {
			pi = 1
		}
		b := fuzzBenchmarks()[int(bi)%len(fuzzBenchmarks())]
		prog := programFor(t, int(bi)%len(fuzzBenchmarks()), pi, platforms[pi])
		hot := int(module) % len(prog.pristine)
		seq := make([]string, 0, min(len(in), 120))
		for _, k := range in[:min(len(in), 120)] {
			seq = append(seq, vocab[int(k)%len(vocab)])
		}
		tuned, ok := compile(prog.pristine[hot], seq)
		if !ok {
			return
		}
		mods := append([]*ir.Module(nil), prog.o3...)
		mods[hot] = tuned
		img := privateImage(t, mods)
		bcRes, bcErr := ms[pi][0].Run(img, "main")
		twRes, twErr := ms[pi][1].Run(img, "main")
		requireIdentical(t, fmt.Sprintf("%s on %s, module %s, seq=%v", b.Name, platforms[pi].Name, tuned.Name, seq),
			bcRes, twRes, bcErr, twErr)
		machine.ReleaseResult(bcRes)
		machine.ReleaseResult(twRes)
	})
}
