package ir

import "math"

// This file is the one definition of what a scalar instruction computes.
// Integer values are carried sign-extended to 64 bits (an i1 as 0 / 1),
// floats as float64 (f32 arithmetic is not rounded; only a cast to f32
// rounds). The machine's engines evaluate every lane through it, and the
// constant folder folds through it, so a fold computes exactly what the
// program would have computed at run time.

// WrapInt wraps v to the signed range of kind k.
func WrapInt(k Kind, v int64) int64 { return truncInt(k, v) }

// IntBinary computes the integer binary op (op.IsIntBinary()) on a and b for
// kind k. ok is false when op divides or takes a remainder by zero. The
// result is wrapped to k, except that and/or/xor, whose results stay in range
// when their operands are, are not, and that MinInt64 / -1 gives MinInt64
// (sdiv) and 0 (srem) instead of trapping.
func IntBinary(op Op, k Kind, a, b int64) (v int64, ok bool) {
	switch op {
	case OpAdd:
		return WrapInt(k, a+b), true
	case OpSub:
		return WrapInt(k, a-b), true
	case OpMul:
		return WrapInt(k, a*b), true
	case OpSDiv:
		if b == 0 {
			return 0, false
		}
		if a == math.MinInt64 && b == -1 {
			return a, true
		}
		return WrapInt(k, a/b), true
	case OpSRem:
		if b == 0 {
			return 0, false
		}
		if a == math.MinInt64 && b == -1 {
			return 0, true
		}
		return WrapInt(k, a%b), true
	case OpUDiv:
		if b == 0 {
			return 0, false
		}
		return WrapInt(k, int64(uint64(a)/uint64(b))), true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return WrapInt(k, a<<uint64(b&63)), true
	case OpLShr:
		return WrapInt(k, int64(uint64(a)>>uint64(b&63))), true
	case OpAShr:
		return WrapInt(k, a>>uint64(b&63)), true
	}
	panic("ir: IntBinary of " + op.String())
}

// FloatBinary computes the float binary op (fadd, fsub, fmul, fdiv) on a and
// b with IEEE-754 semantics: dividing by zero gives ±Inf or NaN.
func FloatBinary(op Op, a, b float64) float64 {
	switch op {
	case OpFAdd:
		return a + b
	case OpFSub:
		return a - b
	case OpFMul:
		return a * b
	case OpFDiv:
		return a / b
	}
	panic("ir: FloatBinary of " + op.String())
}

// Compare evaluates predicate p on a and b: icmp on int64 operands, fcmp on
// float64 ones (ordered, so every predicate but ne is false on a NaN). An
// unknown predicate is false.
func Compare[T int64 | float64](p CmpPred, a, b T) bool {
	switch p {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpSLT:
		return a < b
	case CmpSLE:
		return a <= b
	case CmpSGT:
		return a > b
	case CmpSGE:
		return a >= b
	}
	return false
}

// Cast converts one lane of kind from to kind to. The operand is i for an
// integer source and f for a float one; the result is returned in the field
// of its kind and the other is zero (a non-cast op returns its operand
// unchanged). sext carries its already sign-extended operand as is, except
// that an i1, carried as 0 / 1, extends to 0 / -1; zext masks by the source
// width, trunc and fptosi wrap to the destination, and fpext / fptrunc round
// only on an f32 destination.
func Cast(op Op, from, to Kind, i int64, f float64) (int64, float64) {
	switch op {
	case OpSExt:
		if from == I1 {
			return -(i & 1), 0
		}
		return i, 0
	case OpZExt:
		if bits := from.Bits(); bits < 64 {
			return i & (int64(1)<<uint(bits) - 1), 0
		}
		return i, 0
	case OpTrunc:
		return WrapInt(to, i), 0
	case OpSIToFP:
		return 0, float64(i)
	case OpFPToSI:
		return WrapInt(to, int64(f)), 0
	case OpFPExt, OpFPTrunc:
		if to == F32 {
			return 0, float64(float32(f))
		}
		return 0, f
	}
	return i, f
}
