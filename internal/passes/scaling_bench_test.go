package passes

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ir"
)

// hotShapeModule builds one function of about 42*s instructions in the shape
// that made the use scans quadratic: eight counted loops in a row, each with
// s pure single-use computations in its preheader that only its body
// consumes (loop-sink), foldable identities (instcombine) and duplicated
// expressions (gvn) in the body, and an accumulator carried from loop to loop
// without loop-closed phis (lcssa); then a 4*s-term add chain over loads, the
// first eight of them consecutive (slp-vectorizer walks and matches the whole
// chain, fires twice, and gives up — how often it restarts does not grow with
// s, so the timing is the chain walk, not the restarts).
//
// The loop count is fixed and each header holds only its phis, which keeps
// what is quadratic in the passes for other reasons (Block.InsertBefore is a
// memmove, runCSE copies its scope per dominator-tree child) out of the ratio
// the gates in benchdata/gates.json bound.
func hotShapeModule(s int) *ir.Module {
	m := &ir.Module{Name: fmt.Sprintf("hot%d", s), TargetVecWidth64: 4}
	bd := ir.NewBuilder(m)
	terms := 4 * s
	g := bd.AddGlobal("g", ir.I64T, 1)
	g.InitI = []int64{5}
	a := bd.AddGlobal("a", ir.I64T, 2*terms+16)
	a.InitI = make([]int64, a.Size)
	for i := range a.InitI {
		a.InitI[i] = int64(i%13 - 6)
	}
	bd.NewFunction("main", ir.VoidT)
	i64 := func(v int64) ir.Value { return ir.ConstInt(ir.I64T, v) }
	x := bd.Load(ir.I64T, g)
	var acc ir.Value = i64(0)
	ph := bd.NewBlock("ph0")
	bd.Jmp(ph)
	for j := 0; j < 8; j++ {
		hdr, body := bd.NewBlock(fmt.Sprintf("hdr%d", j)), bd.NewBlock(fmt.Sprintf("body%d", j))
		next := bd.NewBlock(fmt.Sprintf("ph%d", j+1))
		bd.SetBlock(ph)
		ps := make([]*ir.Instr, s)
		for k := range ps {
			ps[k] = bd.Bin(ir.OpAdd, x, i64(int64(j*s+k+1)))
		}
		bd.Jmp(hdr)

		bd.SetBlock(hdr)
		i := bd.Phi(ir.I64T)
		accPhi := bd.Phi(ir.I64T)
		bd.Jmp(body)

		bd.SetBlock(body)
		var cur ir.Value = accPhi
		for _, p := range ps {
			cur = bd.Bin(ir.OpXor, cur, p)
		}
		for k := 0; k < s/4; k++ {
			t := bd.Bin(ir.OpAdd, i, i64(0))
			u := bd.Bin(ir.OpMul, t, i64(1))
			cur = bd.Bin(ir.OpXor, cur, u)
		}
		for k := 0; k < s/4; k++ {
			d1 := bd.Bin(ir.OpShl, cur, i64(3))
			d2 := bd.Bin(ir.OpShl, cur, i64(3))
			cur = bd.Bin(ir.OpXor, bd.Bin(ir.OpXor, cur, d1), d2)
		}
		i2 := bd.Bin(ir.OpAdd, i, i64(1))
		bd.Br(bd.ICmp(ir.CmpSLT, i2, i64(4)), hdr, next)
		ir.AddIncoming(i, i64(0), ph)
		ir.AddIncoming(i, i2, body)
		ir.AddIncoming(accPhi, acc, ph)
		ir.AddIncoming(accPhi, cur, body)
		acc, ph = cur, next
	}
	bd.SetBlock(ph)
	var sum ir.Value = i64(0)
	for k := 0; k < terms; k++ {
		off := int64(k)
		if k >= 8 {
			off = int64(2*k - 7) // 9, 11, 13, ...: never four in a row
		}
		sum = bd.Bin(ir.OpAdd, sum, bd.Load(ir.I64T, bd.GEP(a, i64(off))))
	}
	bd.Call("sim.out.i64", ir.VoidT, sum)
	bd.Call("sim.out.i64", ir.VoidT, acc)
	bd.Ret(nil)
	return m
}

// TestHotShapeExercisesEveryGatedPass keeps the benchmark honest: the shape
// verifies, every gated pass fires on it, and none changes its output.
func TestHotShapeExercisesEveryGatedPass(t *testing.T) {
	build := func() *ir.Module { return hotShapeModule(24) }
	if n := build().NumInstrs(); n < 900 || n > 1100 {
		t.Fatalf("hotShapeModule(24) has %d instructions, want about 1000", n)
	}
	for pass, counter := range map[string]string{
		"loop-sink":      "loop-sink.NumSunk",
		"slp-vectorizer": "SLP.NumVecReductions",
		"instcombine":    "instcombine.NumCombined",
		"gvn":            "gvn.NumGVNInstr",
		"lcssa":          "lcssa.NumLCSSA",
	} {
		st, _, _ := checkSame(t, pass, build, pass)
		if st[counter] == 0 {
			t.Errorf("%s does not fire on the benchmark shape: %v", pass, st)
		}
	}
}

// BenchmarkHotPassesScaling times the five passes that owned the tuning-run
// profile on one function of about 1000 instructions and one of about 4000.
// CI gates t(4n)/t(n) per pass (benchdata/gates.json): linear work gives 4,
// one whole-function scan per instruction gives 16, whatever the machine.
func BenchmarkHotPassesScaling(b *testing.B) {
	for _, pass := range []string{"loop-sink", "slp-vectorizer", "instcombine", "gvn", "lcssa"} {
		for _, size := range []struct {
			name string
			s    int
		}{{"n", 24}, {"4n", 96}} {
			b.Run(pass+"/"+size.name, func(b *testing.B) {
				base := hotShapeModule(size.s)
				p := Lookup(pass)
				// Private copies are made a batch at a time with the timer
				// stopped, and collected before it starts, so the timed region
				// holds the pass and the garbage of the pass alone.
				mods := make([]*ir.Module, 0, 32)
				for done := 0; done < b.N; done += len(mods) {
					b.StopTimer()
					mods = mods[:0]
					for len(mods) < cap(mods) && done+len(mods) < b.N {
						m := base.Clone()
						ir.MaterializeModule(m)
						mods = append(mods, m)
					}
					runtime.GC()
					b.StartTimer()
					for _, m := range mods {
						p.Run(m, Stats{})
					}
				}
			})
		}
	}
}
