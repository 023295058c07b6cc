// Package ir implements the intermediate representation that the simulated
// compiler operates on: a typed, LLVM-style IR with allocas, loads/stores,
// SSA values, phi nodes, structured control flow and fixed-width vector
// operations. It is the substrate for the 76 optimisation passes in
// internal/passes and the cycle-level interpreter in internal/machine.
package ir

import "fmt"

// Kind enumerates scalar element kinds.
type Kind uint8

// Scalar element kinds. Pointers are untyped element indices into the flat
// simulated memory; Void marks instructions without a result.
const (
	Void Kind = iota
	I1
	I8
	I16
	I32
	I64
	F32
	F64
	Ptr
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Void:
		return "void"
	case I1:
		return "i1"
	case I8:
		return "i8"
	case I16:
		return "i16"
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	case Ptr:
		return "ptr"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// IsInt reports whether the kind is an integer type (including i1).
func (k Kind) IsInt() bool { return k >= I1 && k <= I64 }

// IsFloat reports whether the kind is a floating-point type.
func (k Kind) IsFloat() bool { return k == F32 || k == F64 }

// Bits returns the bit width of an integer or float kind (0 otherwise).
func (k Kind) Bits() int {
	switch k {
	case I1:
		return 1
	case I8:
		return 8
	case I16:
		return 16
	case I32:
		return 32
	case I64, F64, Ptr:
		return 64
	case F32:
		return 32
	}
	return 0
}

// Type is a possibly-vector type: Lanes==1 means scalar.
type Type struct {
	Kind  Kind
	Lanes int
}

// Convenience scalar types.
var (
	VoidT = Type{Void, 1}
	I1T   = Type{I1, 1}
	I8T   = Type{I8, 1}
	I16T  = Type{I16, 1}
	I32T  = Type{I32, 1}
	I64T  = Type{I64, 1}
	F32T  = Type{F32, 1}
	F64T  = Type{F64, 1}
	PtrT  = Type{Ptr, 1}
)

// Vec returns the vector type with n lanes of kind k.
func Vec(k Kind, n int) Type { return Type{Kind: k, Lanes: n} }

// String implements fmt.Stringer.
func (t Type) String() string {
	if t.Lanes <= 1 {
		return t.Kind.String()
	}
	return fmt.Sprintf("<%d x %s>", t.Lanes, t.Kind)
}

// Scalar returns the element type of a vector type (identity for scalars).
func (t Type) Scalar() Type { return Type{Kind: t.Kind, Lanes: 1} }

// IsVector reports whether the type has more than one lane.
func (t Type) IsVector() bool { return t.Lanes > 1 }

// Op enumerates instruction opcodes.
type Op uint8

// Instruction opcodes.
const (
	OpInvalid Op = iota

	// Memory.
	OpAlloca // result ptr; NAlloc elements of AllocTy
	OpLoad   // load Ty from Ops[0] (ptr)
	OpStore  // store Ops[0] to Ops[1] (ptr)
	OpGEP    // Ops[0] (ptr) + Ops[1] (index, scaled by element)

	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpUDiv
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Floating point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons and selection.
	OpICmp
	OpFCmp
	OpSelect

	// Casts.
	OpSExt
	OpZExt
	OpTrunc
	OpSIToFP
	OpFPToSI
	OpFPExt
	OpFPTrunc

	// Vector.
	OpExtractElement // Ops[0] vector, Ops[1] lane index const
	OpInsertElement  // Ops[0] vector, Ops[1] scalar, Ops[2] lane index const
	OpBroadcast      // splat scalar Ops[0] to vector Ty
	OpVecReduceAdd   // horizontal add of vector Ops[0] -> scalar

	// Control flow.
	OpBr     // conditional: Ops[0] cond, Blocks[0] then, Blocks[1] else
	OpJmp    // Blocks[0]
	OpSwitch // Ops[0] value, Blocks[0] default, Blocks[1..] cases with Cases[i-1]
	OpRet    // optional Ops[0]
	OpPhi    // Ops[i] incoming from Blocks[i]

	// Calls.
	OpCall // Callee name, Ops are args

	opMax
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpAlloca:  "alloca", OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpUDiv: "udiv", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp", OpSelect: "select",
	OpSExt: "sext", OpZExt: "zext", OpTrunc: "trunc", OpSIToFP: "sitofp",
	OpFPToSI: "fptosi", OpFPExt: "fpext", OpFPTrunc: "fptrunc",
	OpExtractElement: "extractelement", OpInsertElement: "insertelement",
	OpBroadcast: "broadcast", OpVecReduceAdd: "vecreduce.add",
	OpBr: "br", OpJmp: "jmp", OpSwitch: "switch", OpRet: "ret", OpPhi: "phi",
	OpCall: "call",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", o)
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool {
	return o == OpBr || o == OpJmp || o == OpRet || o == OpSwitch
}

// IsBinary reports whether the op is a two-operand arithmetic/logical op.
func (o Op) IsBinary() bool { return o >= OpAdd && o <= OpFDiv }

// IsIntBinary reports whether the op is an integer binary op.
func (o Op) IsIntBinary() bool { return o >= OpAdd && o <= OpAShr }

// IsCast reports whether the op is a conversion.
func (o Op) IsCast() bool { return o >= OpSExt && o <= OpFPTrunc }

// IsCommutative reports whether operands may be swapped.
func (o Op) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpFAdd, OpFMul:
		return true
	}
	return false
}

// IsAssociative reports whether the op is associative (used by reassociate).
// Float ops are treated as associative here, mirroring fast-math behaviour.
func (o Op) IsAssociative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpFAdd, OpFMul:
		return true
	}
	return false
}

// HasSideEffects reports whether the op writes memory or transfers control.
func (o Op) HasSideEffects() bool {
	switch o {
	case OpStore, OpCall, OpBr, OpJmp, OpRet, OpSwitch:
		return true
	}
	return false
}

// CmpPred enumerates comparison predicates shared by icmp and fcmp.
type CmpPred uint8

// Comparison predicates.
const (
	CmpEQ CmpPred = iota
	CmpNE
	CmpSLT
	CmpSLE
	CmpSGT
	CmpSGE
)

// String implements fmt.Stringer.
func (p CmpPred) String() string {
	switch p {
	case CmpEQ:
		return "eq"
	case CmpNE:
		return "ne"
	case CmpSLT:
		return "slt"
	case CmpSLE:
		return "sle"
	case CmpSGT:
		return "sgt"
	case CmpSGE:
		return "sge"
	}
	return "pred?"
}

// Inverse returns the negated predicate.
func (p CmpPred) Inverse() CmpPred {
	switch p {
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpSLT:
		return CmpSGE
	case CmpSLE:
		return CmpSGT
	case CmpSGT:
		return CmpSLE
	case CmpSGE:
		return CmpSLT
	}
	return p
}

// Swapped returns the predicate with operand order reversed.
func (p CmpPred) Swapped() CmpPred {
	switch p {
	case CmpSLT:
		return CmpSGT
	case CmpSLE:
		return CmpSGE
	case CmpSGT:
		return CmpSLT
	case CmpSGE:
		return CmpSLE
	}
	return p
}
