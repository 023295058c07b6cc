package passes

import (
	"math"

	"repro/internal/ir"
)

// foldConst evaluates an instruction whose operands are all constants,
// returning the folded constant or nil when the operation cannot be folded
// (non-constant operand, vector result, unsupported op, or one of the
// refusals below). What an op computes is ir's (ir/eval.go), the same
// definition the machine runs, so a fold never changes a program's output.
func foldConst(in *ir.Instr) *ir.Const {
	if in.Ty.IsVector() {
		return nil
	}
	// Fixed-size operand buffer: every foldable op has at most 3 operands
	// (select), and this runs on every instruction a fold sweep probes, so a
	// per-call slice allocation would dominate the pipeline's allocations.
	var cs [3]*ir.Const
	if len(in.Ops) > len(cs) {
		return nil
	}
	for i, op := range in.Ops {
		c, ok := op.(*ir.Const)
		if !ok {
			return nil
		}
		cs[i] = c
	}
	k := in.Ty.Kind
	switch {
	case in.Op.IsIntBinary():
		// Refusals the machine does not share (DESIGN "IR semantics"):
		// division by zero traps at run time, and MinInt64 / -1 has a value
		// there, but folding it would move every tuning trajectory.
		if (in.Op == ir.OpSDiv || in.Op == ir.OpSRem) && cs[0].I == math.MinInt64 && cs[1].I == -1 {
			return nil
		}
		v, ok := ir.IntBinary(in.Op, k, cs[0].I, cs[1].I)
		if !ok {
			return nil
		}
		return ir.ConstInt(in.Ty, v)
	case in.Op.IsBinary():
		// Likewise division by ±0, though it has a value (±Inf or NaN).
		if in.Op == ir.OpFDiv && cs[1].F == 0 {
			return nil
		}
		return ir.ConstFloat(in.Ty, ir.FloatBinary(in.Op, cs[0].F, cs[1].F))
	case in.Op == ir.OpICmp:
		return ir.ConstBool(ir.Compare(in.Pred, cs[0].I, cs[1].I))
	case in.Op == ir.OpFCmp:
		return ir.ConstBool(ir.Compare(in.Pred, cs[0].F, cs[1].F))
	case in.Op == ir.OpSelect:
		// The operand constant itself: CSE compares constants by pointer.
		if cs[0].I != 0 {
			return cs[1]
		}
		return cs[2]
	case in.Op.IsCast():
		// Cast leaves the field its result does not use zero, so one literal
		// builds exactly what ConstInt or ConstFloat would.
		i, f := ir.Cast(in.Op, in.Ops[0].Type().Kind, k, cs[0].I, cs[0].F)
		return &ir.Const{Ty: in.Ty, I: ir.WrapInt(k, i), F: f}
	}
	return nil
}

// simplifyIdentity returns an existing value the instruction reduces to
// (identity/absorption laws), or nil. It never creates new instructions.
func simplifyIdentity(in *ir.Instr) ir.Value {
	if in.Ty.IsVector() {
		return nil
	}
	c1, ok1 := constOp(in, 1)
	c0, ok0 := constOp(in, 0)
	switch in.Op {
	case ir.OpAdd, ir.OpFAdd, ir.OpOr, ir.OpXor:
		if ok1 && c1.IsZero() {
			return in.Ops[0]
		}
		if ok0 && c0.IsZero() {
			return in.Ops[1]
		}
		if in.Op == ir.OpXor && in.Ops[0] == in.Ops[1] {
			return ir.ConstInt(in.Ty, 0)
		}
		if in.Op == ir.OpOr && in.Ops[0] == in.Ops[1] {
			return in.Ops[0]
		}
	case ir.OpSub, ir.OpFSub:
		if ok1 && c1.IsZero() {
			return in.Ops[0]
		}
		if in.Ops[0] == in.Ops[1] && in.Op == ir.OpSub {
			return ir.ConstInt(in.Ty, 0)
		}
	case ir.OpMul, ir.OpFMul:
		if ok1 && c1.IsOne() {
			return in.Ops[0]
		}
		if ok0 && c0.IsOne() {
			return in.Ops[1]
		}
		if in.Op == ir.OpMul && (ok1 && c1.IsZero() || ok0 && c0.IsZero()) {
			return ir.ConstInt(in.Ty, 0)
		}
	case ir.OpSDiv, ir.OpUDiv, ir.OpFDiv:
		if ok1 && c1.IsOne() {
			return in.Ops[0]
		}
	case ir.OpAnd:
		if in.Ops[0] == in.Ops[1] {
			return in.Ops[0]
		}
		if ok1 && c1.IsZero() || ok0 && c0.IsZero() {
			return ir.ConstInt(in.Ty, 0)
		}
		if ok1 && allOnes(c1, in.Ty.Kind) {
			return in.Ops[0]
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if ok1 && c1.IsZero() {
			return in.Ops[0]
		}
	case ir.OpICmp:
		if in.Ops[0] == in.Ops[1] {
			switch in.Pred {
			case ir.CmpEQ, ir.CmpSLE, ir.CmpSGE:
				return ir.ConstBool(true)
			case ir.CmpNE, ir.CmpSLT, ir.CmpSGT:
				return ir.ConstBool(false)
			}
		}
	case ir.OpSelect:
		if c, ok := constOp(in, 0); ok {
			if c.I != 0 {
				return in.Ops[1]
			}
			return in.Ops[2]
		}
		if in.Ops[1] == in.Ops[2] {
			return in.Ops[1]
		}
	case ir.OpGEP:
		if ok1 && c1.IsZero() {
			return in.Ops[0]
		}
	}
	return nil
}

func constOp(in *ir.Instr, i int) (*ir.Const, bool) {
	if i >= len(in.Ops) {
		return nil, false
	}
	c, ok := in.Ops[i].(*ir.Const)
	return c, ok
}

func allOnes(c *ir.Const, k ir.Kind) bool {
	bits := k.Bits()
	if bits >= 64 {
		return c.I == -1
	}
	return c.I == int64(1)<<uint(bits)-1 || c.I == -1
}

func isPowerOfTwo(v int64) (int64, bool) {
	if v <= 0 || v&(v-1) != 0 {
		return 0, false
	}
	n := int64(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n, true
}
