package passes

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
)

// The constant folder and the machine share one definition of what an
// instruction computes (ir/eval.go). These tests hold the folder to what both
// machine engines compute for the same instruction left unfolded, so a
// private folder path that drifts from the machine fails here.

// foldShape is one op foldConst folds; a compare carries its predicate.
type foldShape struct {
	op   ir.Op
	pred ir.CmpPred
}

// foldShapes lists every op foldConst folds: the integer and float binary
// ops, each predicate of icmp and fcmp, select and the casts.
var foldShapes = func() []foldShape {
	var s []foldShape
	for op := ir.OpAdd; op <= ir.OpFDiv; op++ {
		s = append(s, foldShape{op: op})
	}
	for _, op := range []ir.Op{ir.OpICmp, ir.OpFCmp} {
		for p := ir.CmpEQ; p <= ir.CmpSGE; p++ {
			s = append(s, foldShape{op, p})
		}
	}
	s = append(s, foldShape{op: ir.OpSelect})
	for op := ir.OpSExt; op <= ir.OpFPTrunc; op++ {
		s = append(s, foldShape{op: op})
	}
	return s
}()

var (
	foldIntTypes   = []ir.Type{ir.I1T, ir.I8T, ir.I16T, ir.I32T, ir.I64T}
	foldFloatTypes = []ir.Type{ir.F32T, ir.F64T}

	// Integer edge operands: 0, ±1, every kind's min and max, the shift
	// amounts 63 and 64, and 2^53+1, the first integer a float64 rounds.
	foldIntEdges = []int64{0, 1, -1, 2, 63, 64, -128, 127, 255, -32768, 32767,
		math.MinInt32, math.MaxInt32, math.MaxUint32, 1<<53 + 1, math.MinInt64, math.MaxInt64}
	// Float edge operands: ±0, ±1, NaN, ±Inf, fractions fptosi truncates,
	// 2^53+2 and the float64 2^53+1 rounds to, 0.1 (which an f32 rounds),
	// values beyond int64 and f32, and the extremes of float64.
	foldFloatEdges = []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		2.5, -3.5, 0.1, 1<<53 + 1, 1<<53 + 2, 9.3e18, -9.3e18, 1e300,
		math.MaxFloat32 * 2, math.MaxFloat64, math.SmallestNonzeroFloat64}
)

// foldResultTypes returns the result types of a well-typed op over operand
// type ty: one for everything but a cast, none for a cast that ty cannot be
// the source of.
func foldResultTypes(op ir.Op, ty ir.Type) []ir.Type {
	var out []ir.Type
	switch op {
	case ir.OpICmp, ir.OpFCmp:
		return []ir.Type{ir.I1T}
	case ir.OpSExt, ir.OpZExt, ir.OpTrunc:
		for _, t := range foldIntTypes {
			if wider := t.Kind.Bits() > ty.Kind.Bits(); wider == (op != ir.OpTrunc) && t != ty {
				out = append(out, t)
			}
		}
	case ir.OpSIToFP:
		return foldFloatTypes
	case ir.OpFPToSI:
		return foldIntTypes
	case ir.OpFPExt:
		if ty.Kind == ir.F32 {
			return []ir.Type{ir.F64T}
		}
	case ir.OpFPTrunc:
		if ty.Kind == ir.F64 {
			return []ir.Type{ir.F32T}
		}
	default:
		return []ir.Type{ty}
	}
	return out
}

// foldOperandTypes returns the operand types op takes in well-typed IR.
func foldOperandTypes(op ir.Op) []ir.Type {
	var cands []ir.Type
	switch {
	case op.IsIntBinary(), op == ir.OpICmp, op == ir.OpSExt, op == ir.OpZExt,
		op == ir.OpTrunc, op == ir.OpSIToFP:
		cands = foldIntTypes
	case op == ir.OpSelect:
		cands = append(append([]ir.Type(nil), foldIntTypes...), foldFloatTypes...)
	default:
		cands = foldFloatTypes
	}
	var out []ir.Type
	for _, t := range cands {
		if len(foldResultTypes(op, t)) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// foldOperand is a constant of type ty from operand bits: int64(bits) wrapped
// to an integer ty, or the float64 with those IEEE bits.
func foldOperand(ty ir.Type, bits uint64) *ir.Const {
	if ty.Kind.IsFloat() {
		return ir.ConstFloat(ty, math.Float64frombits(bits))
	}
	return ir.ConstInt(ty, int64(bits))
}

// foldInstr builds shape s over operand type ty with result type to. A
// select's condition is a's low bit.
func foldInstr(s foldShape, ty, to ir.Type, a, b uint64) *ir.Instr {
	x, y := foldOperand(ty, a), foldOperand(ty, b)
	ops := []ir.Value{x, y}
	switch {
	case s.op == ir.OpSelect:
		ops = []ir.Value{ir.ConstBool(a&1 != 0), x, y}
	case s.op.IsCast():
		ops = ops[:1]
	}
	return &ir.Instr{Op: s.op, Pred: s.pred, Ty: to, Ops: ops}
}

// foldRefusal names the refusal that keeps in unfolded, or is "" when the
// folder must fold it. These are the only instructions over constants the
// folder leaves to run time: folding them would change which candidates
// trap, or what a division by zero prints, and so the tuning trajectories.
func foldRefusal(in *ir.Instr) string {
	switch in.Op {
	case ir.OpSDiv, ir.OpSRem, ir.OpUDiv:
		a, b := in.Ops[0].(*ir.Const).I, in.Ops[1].(*ir.Const).I
		if b == 0 {
			return "integer division by zero"
		}
		if in.Op != ir.OpUDiv && a == math.MinInt64 && b == -1 {
			return "MinInt64 / -1"
		}
	case ir.OpFDiv:
		if in.Ops[1].(*ir.Const).F == 0 {
			return "float division by zero"
		}
	}
	return ""
}

// foldEngines runs an instruction, unfolded, on both machine engines.
type foldEngines struct{ bc, tree *machine.Machine }

func newFoldEngines() foldEngines {
	tree := machine.New(machine.CortexA57())
	tree.TreeWalk = true
	return foldEngines{bc: machine.New(machine.CortexA57()), tree: tree}
}

// run executes `main { ins...; print the last }` and returns what each
// engine printed.
func (e foldEngines) run(t *testing.T, ins ...*ir.Instr) (bc, tree machine.OutputEvent) {
	t.Helper()
	m := &ir.Module{Name: "fold"}
	bd := ir.NewBuilder(m)
	bd.NewFunction("main", ir.VoidT)
	for _, in := range ins {
		bd.B.Append(in)
	}
	in := ins[len(ins)-1]
	if in.Ty.Kind.IsFloat() {
		bd.Call("sim.out.f64", ir.VoidT, in)
	} else {
		bd.Call("sim.out.i64", ir.VoidT, in)
	}
	bd.Ret(nil)
	img, err := machine.Link(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		mc  *machine.Machine
		out *machine.OutputEvent
	}{{e.bc, &bc}, {e.tree, &tree}} {
		res, err := r.mc.Run(img, "main")
		if err != nil {
			t.Fatalf("%s: folded, but the machine (tree-walk %v) fails: %v", in, r.mc.TreeWalk, err)
		}
		*r.out = res.Output[0]
		machine.ReleaseResult(res)
	}
	return bc, tree
}

// checkFold folds in and holds the result to the machine: a refusal case
// must stay unfolded, anything else must fold to the constant both engines
// print for the unfolded instruction, bit for bit (any NaN equals any NaN).
func checkFold(t *testing.T, e foldEngines, in *ir.Instr) {
	t.Helper()
	c := foldConst(in)
	if refusal := foldRefusal(in); refusal != "" {
		if c != nil {
			t.Fatalf("%s: folded to %+v, want it left to run time (%s)", in, *c, refusal)
		}
		return
	}
	if c == nil {
		t.Fatalf("%s: not folded", in)
	}
	if c.Ty != in.Ty {
		t.Fatalf("%s: folded to type %s", in, c.Ty)
	}
	bc, tree := e.run(t, in)
	for _, out := range []machine.OutputEvent{bc, tree} {
		same := c.I == out.I && math.Float64bits(c.F) == math.Float64bits(out.F)
		if out.IsFloat && math.IsNaN(c.F) && math.IsNaN(out.F) {
			same = c.I == 0
		}
		if !same || out.IsFloat != in.Ty.Kind.IsFloat() {
			t.Fatalf("%s: folded to {I:%d F:%v}, the machine prints %+v (bytecode %+v, tree-walker %+v)",
				in, c.I, c.F, out, bc, tree)
		}
	}
}

// TestFoldMatchesMachine folds every op foldConst handles, over each integer
// and float kind and the edge operands, and holds each fold to both engines.
func TestFoldMatchesMachine(t *testing.T) {
	e := newFoldEngines()
	cases := 0
	for _, s := range foldShapes {
		for _, ty := range foldOperandTypes(s.op) {
			var edges []uint64
			if ty.Kind.IsFloat() {
				for _, v := range foldFloatEdges {
					edges = append(edges, math.Float64bits(v))
				}
			} else {
				for _, v := range foldIntEdges {
					edges = append(edges, uint64(v))
				}
			}
			for _, to := range foldResultTypes(s.op, ty) {
				for _, a := range edges {
					for _, b := range edges {
						checkFold(t, e, foldInstr(s, ty, to, a, b))
						cases++
						if s.op.IsCast() {
							break // one operand
						}
					}
				}
			}
		}
	}
	t.Logf("%d instructions", cases)

	// The i1 extensions, pinned by value: an i1 is carried as 0 / 1, and
	// sext makes true all ones, as in LLVM, where zext makes it 1.
	for _, p := range []struct {
		op   ir.Op
		want int64
	}{{ir.OpSExt, -1}, {ir.OpZExt, 1}} {
		in := &ir.Instr{Op: p.op, Ty: ir.I32T, Ops: []ir.Value{ir.ConstBool(true)}}
		if c := foldConst(in); c == nil || c.I != p.want {
			t.Errorf("%s: folded to %+v, want %d", in, c, p.want)
		}
		checkFold(t, e, in)
		// The same extension of a four-lane vector of true, summed: 4·want.
		vb := &ir.Instr{Op: ir.OpBroadcast, Ty: ir.Vec(ir.I1, 4), Ops: []ir.Value{ir.ConstBool(true)}}
		vx := &ir.Instr{Op: p.op, Ty: ir.Vec(ir.I32, 4), Ops: []ir.Value{vb}}
		sum := &ir.Instr{Op: ir.OpVecReduceAdd, Ty: ir.I32T, Ops: []ir.Value{vx}}
		bc, tree := e.run(t, vb, vx, sum)
		if bc.I != 4*p.want || tree.I != 4*p.want {
			t.Errorf("%s of <4 x i1> true, summed: bytecode %d, tree-walker %d, want %d", p.op, bc.I, tree.I, 4*p.want)
		}
	}
}

// foldPins are the folds whose outcome is not a value: the three refusals,
// and select, which must hand back the operand constant itself because CSE
// compares constants by pointer. FuzzFoldMatchesMachine seeds from them.
var foldPins = []struct {
	name string
	s    foldShape
	ty   ir.Type
	a, b uint64
	want string // the refusal, or "operand 1" / "operand 2" for select
}{
	{"sdiv by zero", foldShape{op: ir.OpSDiv}, ir.I32T, 7, 0, "integer division by zero"},
	{"srem by zero", foldShape{op: ir.OpSRem}, ir.I64T, 7, 0, "integer division by zero"},
	{"udiv by zero", foldShape{op: ir.OpUDiv}, ir.I8T, 1<<64 - 1, 0, "integer division by zero"},
	{"sdiv MinInt64 by -1", foldShape{op: ir.OpSDiv}, ir.I64T, 1 << 63, 1<<64 - 1, "MinInt64 / -1"},
	{"srem MinInt64 by -1", foldShape{op: ir.OpSRem}, ir.I64T, 1 << 63, 1<<64 - 1, "MinInt64 / -1"},
	{"fdiv by zero", foldShape{op: ir.OpFDiv}, ir.F64T, math.Float64bits(1), 0, "float division by zero"},
	{"fdiv by -0", foldShape{op: ir.OpFDiv}, ir.F32T, math.Float64bits(1), 1 << 63, "float division by zero"},
	{"fdiv 0 by 0", foldShape{op: ir.OpFDiv}, ir.F64T, 0, 0, "float division by zero"},
	{"select true", foldShape{op: ir.OpSelect}, ir.I32T, 5, 6, "operand 1"},
	{"select false", foldShape{op: ir.OpSelect}, ir.F64T, math.Float64bits(2), math.Float64bits(3), "operand 2"},
}

// TestFoldRefusalsAndSelectIdentity pins the refusals and select's pointer
// identity, which TestFoldMatchesMachine's value comparison cannot see.
func TestFoldRefusalsAndSelectIdentity(t *testing.T) {
	for _, p := range foldPins {
		in := foldInstr(p.s, p.ty, p.ty, p.a, p.b)
		c := foldConst(in)
		switch p.want {
		case "operand 1", "operand 2":
			if op := in.Ops[p.want[len(p.want)-1]-'0']; c != op {
				t.Errorf("%s: folded to %p, want %s, the constant %p itself", p.name, c, p.want, op)
			}
		default:
			if got := foldRefusal(in); got != p.want || c != nil {
				t.Errorf("%s: folded to %v (refusal %q), want nil (%s)", p.name, c, got, p.want)
			}
		}
	}
}

// FuzzFoldMatchesMachine decodes an op shape, an operand type, a result type
// (for casts) and two operands from the fuzz input and holds the fold to both
// engines as TestFoldMatchesMachine does.
func FuzzFoldMatchesMachine(f *testing.F) {
	index := func(s foldShape) uint8 {
		for i, x := range foldShapes {
			if x == s {
				return uint8(i)
			}
		}
		panic("unknown fold shape")
	}
	for _, p := range foldPins {
		tys := foldOperandTypes(p.s.op)
		k := 0
		for tys[k] != p.ty {
			k++
		}
		f.Add(index(p.s), uint8(k), uint8(0), p.a, p.b)
	}
	e := newFoldEngines()
	f.Fuzz(func(t *testing.T, shape, kind, to uint8, a, b uint64) {
		s := foldShapes[int(shape)%len(foldShapes)]
		tys := foldOperandTypes(s.op)
		ty := tys[int(kind)%len(tys)]
		res := foldResultTypes(s.op, ty)
		checkFold(t, e, foldInstr(s, ty, res[int(to)%len(res)], a, b))
	})
}
