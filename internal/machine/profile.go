// Package machine executes IR modules on a simulated CPU. It provides the
// runtime measurements that drive the autotuner: a linker that resolves
// cross-module calls, an interpreter that produces the program's output
// stream (for differential testing) and a parameterised cycle cost model with
// branch prediction, a data-cache model and an instruction-footprint penalty.
// Two platform profiles mirror the paper's ARM and x86 evaluation machines.
package machine

import "repro/internal/ir"

// Profile parameterises the cost model of a simulated CPU.
type Profile struct {
	Name string

	// Per-operation costs in cycles.
	IntALU     float64 // add/sub/logic/shift/cmp/select/cast
	IntMul     float64
	IntDiv     float64
	FloatALU   float64 // fadd/fsub
	FloatMul   float64
	FloatDiv   float64
	LoadHit    float64 // L1 hit
	LoadMiss   float64 // L1 miss penalty (added to hit cost)
	Store      float64
	Branch     float64 // base cost of a taken branch
	Mispredict float64 // additional penalty on misprediction
	CallOver   float64 // call + return overhead

	// VecWidth64 is the number of 64-bit lanes the SIMD unit processes per
	// operation; 32-bit element vectors get twice the lanes.
	VecWidth64 int

	// Data cache geometry (direct mapped, line granularity in elements).
	DCacheLines   int // power of two
	DCacheLineElt int // elements per line (power of two)

	// ICacheInstrs is the instruction-footprint budget; executing code whose
	// static size exceeds it inflates every cycle by ICachePenalty per
	// doubling (models i-cache/fetch pressure from unrolling and inlining).
	ICacheInstrs  int
	ICachePenalty float64
}

// CortexA57 approximates the ARM Cortex-A57 (Jetson TX2) used in the paper.
func CortexA57() Profile {
	return Profile{
		Name:   "cortex-a57",
		IntALU: 1, IntMul: 3, IntDiv: 18,
		FloatALU: 4, FloatMul: 5, FloatDiv: 17,
		LoadHit: 2, LoadMiss: 28, Store: 1,
		Branch: 1, Mispredict: 14, CallOver: 6,
		VecWidth64:  2, // 128-bit NEON
		DCacheLines: 512, DCacheLineElt: 8,
		ICacheInstrs: 8192, ICachePenalty: 0.15,
	}
}

// Zen3 approximates the AMD x86 server CPU used in the paper.
func Zen3() Profile {
	return Profile{
		Name:   "zen3",
		IntALU: 1, IntMul: 3, IntDiv: 14,
		FloatALU: 3, FloatMul: 3, FloatDiv: 11,
		LoadHit: 1.5, LoadMiss: 22, Store: 1,
		Branch: 1, Mispredict: 17, CallOver: 5,
		VecWidth64:  4, // 256-bit AVX2
		DCacheLines: 1024, DCacheLineElt: 8,
		ICacheInstrs: 12288, ICachePenalty: 0.12,
	}
}

// opCost returns the base cycle cost of executing one instance of in,
// excluding memory, branch and call effects which are modelled dynamically.
func (p *Profile) opCost(in *ir.Instr) float64 {
	lanes := in.Ty.Lanes
	// SIMD: a vector op of L lanes issues in ceil(L/width) micro-ops.
	vecFactor := func(width int) float64 {
		if lanes <= 1 || width <= 0 {
			return 1
		}
		return float64((lanes + width - 1) / width)
	}
	w := p.VecWidth64
	if in.Ty.Kind == ir.F32 || in.Ty.Kind == ir.I32 || in.Ty.Kind == ir.I16 || in.Ty.Kind == ir.I8 {
		w *= 2
	}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr,
		ir.OpAShr, ir.OpICmp, ir.OpSelect, ir.OpGEP,
		ir.OpSExt, ir.OpZExt, ir.OpTrunc, ir.OpSIToFP, ir.OpFPToSI,
		ir.OpFPExt, ir.OpFPTrunc, ir.OpBroadcast,
		ir.OpExtractElement, ir.OpInsertElement:
		return p.IntALU * vecFactor(w)
	case ir.OpMul:
		return p.IntMul * vecFactor(w)
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem:
		return p.IntDiv * float64(max(1, lanes)) // divisions do not vectorise
	case ir.OpFAdd, ir.OpFSub, ir.OpFCmp:
		return p.FloatALU * vecFactor(w)
	case ir.OpFMul:
		return p.FloatMul * vecFactor(w)
	case ir.OpFDiv:
		return p.FloatDiv * float64(max(1, lanes))
	case ir.OpVecReduceAdd:
		// log2(lanes) shuffle+add stages.
		stages := 0
		for l := max(1, in.Ops[0].Type().Lanes); l > 1; l >>= 1 {
			stages++
		}
		if in.Ops[0].Type().Kind.IsFloat() {
			return p.FloatALU * float64(max(1, stages))
		}
		return p.IntALU * float64(max(1, stages))
	case ir.OpPhi, ir.OpAlloca:
		return 0
	case ir.OpJmp:
		return p.Branch
	case ir.OpRet:
		return 0
	default:
		return p.IntALU
	}
}
