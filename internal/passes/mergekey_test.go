package passes_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

// fmtMergeKey is mergefunc's key as the pass rendered it with fmt, a map per
// numbering: the oracle the strconv rendering must equal byte for byte.
func fmtMergeKey(f *ir.Function) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v(", f.RetTy)
	for _, p := range f.Params {
		fmt.Fprintf(&sb, "%v,", p.Ty)
	}
	sb.WriteString(")")
	// Local numbering.
	id := map[ir.Value]int{}
	next := 0
	for _, p := range f.Params {
		id[p] = next
		next++
	}
	bid := map[*ir.Block]int{}
	for i, b := range f.Blocks {
		bid[b] = i
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			id[in] = next
			next++
		}
	}
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:", bid[b])
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "%d=%v/%v/%v/%s", id[in], in.Op, in.Ty, in.Pred, in.Callee)
			for _, op := range in.Ops {
				switch t := op.(type) {
				case *ir.Const:
					fmt.Fprintf(&sb, " c%d:%g", t.I, t.F)
				case *ir.Global:
					fmt.Fprintf(&sb, " @%s", t.Name)
				default:
					fmt.Fprintf(&sb, " v%d", id[op])
				}
			}
			for _, tb := range in.Blocks {
				fmt.Fprintf(&sb, " b%d", bid[tb])
			}
			sb.WriteString(";")
		}
	}
	return sb.String()
}

// checkMergeKeys compares the key of every function of m with the oracle's,
// and reports whether some body had IDs that are not its block-order
// positions: the key must not depend on Instr.ID, which goes stale as passes
// insert and remove instructions.
func checkMergeKeys(t *testing.T, m *ir.Module, where string) (stale bool) {
	t.Helper()
	keys := passes.MergeKeysForTest(m)
	for i, f := range m.Funcs {
		if want := fmtMergeKey(f); keys[i] != want {
			t.Fatalf("%s: key of %s\n got %q\nwant %q", where, f.Name, keys[i], want)
		}
		id := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				stale = stale || in.ID != id
				id++
			}
		}
	}
	return stale
}

// craftedMergeModule builds functions whose keys reach every rendering the
// fmt verbs had: float constants of every shape %g prints, vector and
// unknown types, an unknown opcode and predicate, operands and targets
// outside the function, a parameter of another function, a nil operand, and
// an instruction and a block listed twice (numbered by their last position).
func craftedMergeModule() *ir.Module {
	m := &ir.Module{Name: "crafted"}
	bd := ir.NewBuilder(m)
	other := bd.NewFunction("other", ir.I64T, ir.I64T, ir.F64T)
	bd.Ret(other.Params[0])
	g := bd.AddGlobal("tab", ir.F64T, 4)
	body := func(name string) *ir.Function {
		f := bd.NewFunction(name, ir.Vec(ir.F32, 4), ir.I64T, ir.Vec(ir.F32, 4), ir.Type{Kind: 99, Lanes: 1})
		var vals []ir.Value
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e21, 1e20,
			5e-324, 2.2250738585072014e-308, 1.5, -0.1, 123456789, 1e-5, 1e-4} {
			vals = append(vals, bd.Bin(ir.OpFAdd, ir.ConstFloat(ir.F64T, v), ir.ConstFloat(ir.F32T, v)))
		}
		vals = append(vals, bd.Bin(ir.OpAdd, ir.ConstInt(ir.I64T, math.MinInt64), ir.ConstInt(ir.I8T, -1)))
		bd.B.Append(&ir.Instr{Op: ir.Op(200), Ty: ir.Vec(ir.I16, 8), Ops: []ir.Value{f.Params[1], vals[0], nil}})
		bd.B.Append(&ir.Instr{Op: ir.OpICmp, Pred: ir.CmpPred(77), Ty: ir.I1T, Ops: []ir.Value{other.Blocks[0].Instrs[0], other.Params[1]}})
		bd.B.Append(&ir.Instr{Op: ir.OpFCmp, Pred: ir.CmpSGE, Ty: ir.I1T, Ops: []ir.Value{f.Params[2], g}})
		bd.Call("sim.out.f64", ir.VoidT, bd.Load(ir.F64T, bd.GEP(g, f.Params[0])))
		loop, exit := bd.NewBlock("loop"), bd.NewBlock("exit")
		bd.Jmp(loop)
		bd.SetBlock(loop)
		phi := bd.Phi(ir.I64T)
		ir.AddIncoming(phi, f.Params[0], f.Blocks[0])
		next := bd.Bin(ir.OpAdd, phi, ir.ConstInt(ir.I64T, 1))
		ir.AddIncoming(phi, next, loop)
		bd.Br(bd.ICmp(ir.CmpSLT, next, ir.ConstInt(ir.I64T, 10)), loop, exit)
		bd.SetBlock(exit)
		bd.B.Append(&ir.Instr{Op: ir.OpSwitch, Ops: []ir.Value{next}, Blocks: []*ir.Block{exit, other.Blocks[0], loop}, Cases: []int64{1, 2}})
		bd.SetBlock(bd.NewBlock("ret"))
		bd.Ret(f.Params[1])
		return f
	}
	body("f")
	// The same body again with an instruction and a block listed twice.
	dup := body("dup")
	loop := dup.Blocks[1]
	loop.Instrs = append(loop.Instrs[:1:1], append([]*ir.Instr{dup.Blocks[0].Instrs[2]}, loop.Instrs[1:]...)...)
	dup.Blocks = append(dup.Blocks, loop)
	return m
}

// TestMergeFuncKeyMatchesFmt holds the strconv rendering of mergefunc's key
// to the fmt one it replaced: on crafted functions with dense and with stale
// IDs, and on every CBench / SPEC module of both datasets, pristine and after
// every pass of random sequences, where pass-inserted instructions leave IDs
// stale.
func TestMergeFuncKeyMatchesFmt(t *testing.T) {
	m := craftedMergeModule()
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				in.ID = 0
			}
		}
	}
	if !checkMergeKeys(t, m, "crafted, stale IDs") {
		t.Fatal("crafted module has dense IDs: the stale case proves nothing")
	}
	m.Renumber()
	checkMergeKeys(t, m, "crafted, renumbered")
	if key := passes.MergeKeysForTest(m)[1]; !strings.Contains(key, "op(200)") || !strings.Contains(key, "pred?") ||
		!strings.Contains(key, " v0") || !strings.Contains(key, "NaN") || !strings.Contains(key, "<8 x i16>") {
		t.Fatalf("crafted key lacks a case it was built for: %q", key)
	}

	names := passes.Names()
	rng := rand.New(rand.NewSource(26))
	mgr := passes.NewManager()
	var stale, dense int
	for bi, b := range append(bench.CBench(), bench.SPEC()...) {
		plat := []bench.Platform{bench.ARM(), bench.X86()}[bi%2]
		for ds := 0; ds < 2; ds++ {
			for _, m := range b.Build(ds, plat.Prof.VecWidth64) {
				where := fmt.Sprintf("%s/%s ds%d", b.Name, m.Name, ds)
				checkMergeKeys(t, m, where+" pristine")
				seq := make([]string, 8+rng.Intn(40))
				for i := range seq {
					seq[i] = names[rng.Intn(len(names))]
				}
				for i, name := range seq {
					panicked := func() (r any) {
						defer func() { r = recover() }()
						mgr.RunOne(m, passes.Lookup(name), passes.Stats{})
						return nil
					}()
					if panicked != nil {
						break
					}
					if checkMergeKeys(t, m, fmt.Sprintf("%s after %v", where, seq[:i+1])) {
						stale++
					} else {
						dense++
					}
				}
			}
		}
	}
	t.Logf("%d module states with stale IDs, %d dense", stale, dense)
	if stale == 0 || dense == 0 {
		t.Fatal("the sequences never left IDs stale, or always did")
	}
}
