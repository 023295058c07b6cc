package machine

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// This file is the bytecode engine's dispatch loop. It executes the lowered
// programs produced by lower.go over the same runCore (memory slab, d-cache
// model, builtins) as the tree-walker; the loop reproduces the tree-walker's
// step counting, cycle accumulation order and error points exactly, so
// Results are bit-identical between the engines.

// bcState is the bytecode engine's execution state: the shared runCore plus
// flat (index-addressed) replacements for the tree-walker's per-pointer maps.
type bcState struct {
	runCore
	prog   *bcProgram
	bpred  []uint8   // per lowered branch site (2-bit saturating)
	called []bool    // per function index
	fcyc   []float64 // exclusive cycles per function index
}

func kindFloat(k uint8) bool {
	return k == uint8(ir.F32) || k == uint8(ir.F64)
}

// wrapI re-wraps an integer fast-op result to its declared width, exactly
// like binScalar (the i64 hot path skips the call).
func wrapI(k uint8, v int64) int64 {
	if kk := ir.Kind(k); kk != ir.I64 {
		v = ir.WrapInt(kk, v)
	}
	return v
}

// evalPureOp executes a pure value op on its (up to three) operand values.
// It is both engines' evaluator for the ops the dispatch loop has no fast
// path for: the bytecode engine's generic opcode calls it, and so does the
// tree-walker's evalPure for every pure op. Every scalar lane goes through
// ir's semantics (ir/eval.go).
func evalPureOp(g *genOp, ops *[3]Val) (Val, error) {
	switch {
	case g.op.IsBinary():
		return binVal(g.op, g.ty, ops[0], ops[1])
	case g.op == ir.OpICmp:
		return cmpVal(g.pred, g.opTy, ops[0], ops[1], false), nil
	case g.op == ir.OpFCmp:
		return cmpVal(g.pred, g.opTy, ops[0], ops[1], true), nil
	case g.op == ir.OpSelect:
		return selectVal(g.ty, ops[0], ops[1], ops[2]), nil
	case g.op.IsCast():
		return castVal(g.op, g.opTy, g.ty, ops[0]), nil
	case g.op == ir.OpBroadcast:
		out := Val{Vec: make([]Val, g.ty.Lanes)}
		for i := range out.Vec {
			out.Vec[i] = ops[0]
		}
		return out, nil
	case g.op == ir.OpExtractElement:
		lane := ops[1].I
		if lane < 0 || int(lane) >= len(ops[0].Vec) {
			return Val{}, fmt.Errorf("machine: extractelement lane %d out of range", lane)
		}
		return ops[0].Vec[lane], nil
	case g.op == ir.OpInsertElement:
		lane := ops[2].I
		if lane < 0 || int(lane) >= len(ops[0].Vec) {
			return Val{}, fmt.Errorf("machine: insertelement lane %d out of range", lane)
		}
		out := Val{Vec: append([]Val(nil), ops[0].Vec...)}
		out.Vec[lane] = ops[1]
		return out, nil
	case g.op == ir.OpVecReduceAdd:
		elem := g.opTy.Kind
		if elem.IsFloat() {
			s := 0.0
			for _, l := range ops[0].Vec {
				s += l.F
			}
			return Val{F: s}, nil
		}
		s := int64(0)
		for _, l := range ops[0].Vec {
			s += l.I
		}
		return Val{I: ir.WrapInt(elem, s)}, nil
	}
	return Val{}, fmt.Errorf("machine: cannot execute op %s", g.op)
}

// acquireBC returns a run-ready bytecode state, pooled when possible and
// scrubbed back to fresh-allocation equivalence (same contract as
// acquireState).
func (m *Machine) acquireBC(prog *bcProgram, img *Image) *bcState {
	st := bcStates.get()
	if st == nil {
		st = &bcState{}
	}
	st.m, st.prog = m, prog
	st.takeSlab(img.GlobalWords+m.StackWords, img.GlobalWords)
	st.prepMemModel()
	st.sp = img.GlobalWords
	st.cycles, st.steps, st.curChild, st.depth = 0, 0, 0, 0
	st.out = nil
	if cap(st.bpred) < int(prog.nBranch) {
		st.bpred = make([]uint8, prog.nBranch)
	} else {
		st.bpred = st.bpred[:prog.nBranch]
		clear(st.bpred)
	}
	nf := len(prog.funcs)
	if cap(st.called) < nf {
		st.called = make([]bool, nf)
		st.fcyc = make([]float64, nf)
	} else {
		st.called = st.called[:nf]
		st.fcyc = st.fcyc[:nf]
		clear(st.called)
		clear(st.fcyc)
	}
	return st
}

// bcStates keeps the bytecode engine's idle execution states for every
// machine of the process, as slabs keeps their memory, so a new machine — a
// new evaluator's — runs on what an earlier one left instead of allocating
// its own. acquireBC re-derives everything a state holds from the machine and
// image it runs, so which machine used a state last changes nothing.
var bcStates freeList[bcState]

func (m *Machine) releaseBC(st *bcState) {
	st.dropSlab()
	st.m, st.prog = nil, nil
	st.out = nil
	bcStates.put(st)
}

// runBC executes a lowered program.
func (m *Machine) runBC(prog *bcProgram, img *Image, entry string, args []Val) (*Result, error) {
	fi, ok := prog.funcIdx[entry]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoFunction, entry)
	}
	res := acquireResult()
	st := m.acquireBC(prog, img)
	defer m.releaseBC(st)
	st.out = res.Output
	st.initGlobals(img)
	ret, err := st.call(fi, args)
	if err != nil {
		res.Output = st.out
		ReleaseResult(res)
		return nil, err
	}
	hot := 0
	for i := range st.called {
		if st.called[i] {
			hot += prog.funcs[i].size
		}
	}
	res.Output = st.out
	res.Cycles = m.icachePenalty(st.cycles, hot)
	res.Steps = st.steps
	res.Ret = ret
	for i := range st.fcyc {
		if st.called[i] {
			res.FuncCycles[prog.funcs[i].name] = st.fcyc[i]
		}
	}
	return res, nil
}

// call executes function fi, attributing exclusive cycles (same math as the
// tree-walker's call wrapper).
func (st *bcState) call(fi int32, args []Val) (Val, error) {
	start := st.cycles
	savedChild := st.curChild
	st.curChild = 0
	v, err := st.callInner(fi, args)
	total := st.cycles - start
	st.fcyc[fi] += total - st.curChild
	st.curChild = savedChild + total
	return v, err
}

// callInner runs one activation of function fi. The frame is [params |
// instruction results | constant pool]; the pool is the function's, patched
// for this image, copied in after getVals zeroed the frame, so every operand
// is a plain frame read. Each instruction slot has one writer, so a scalar
// fast op writes only the field it produces (.I or .F): the other fields are
// still zero, as a whole-Val write would leave them.
//
// steps and cycles live in locals while the loop runs. They are written back
// to runCore before anything else reads or adds to them — a call, a builtin,
// a vector load or store (chargeMem) — and before every return, error
// returns included; the cycle additions happen in the tree-walker's order.
func (st *bcState) callInner(fi int32, args []Val) (Val, error) {
	if st.depth >= st.m.MaxCallDepth {
		return Val{}, ErrCallDepth
	}
	st.depth++
	defer func() { st.depth-- }()
	st.called[fi] = true
	st.cycles += st.m.Prof.CallOver

	fn := &st.prog.funcs[fi]
	frame := st.getVals(int(fn.frame))
	defer st.putVals(frame)
	copy(frame[:fn.nParams], args)
	copy(frame[int(fn.frame)-len(fn.consts):], fn.consts)
	savedSP := st.sp

	code := fn.code
	maxSteps := st.m.MaxSteps
	brCost, mispredict := st.m.Prof.Branch, st.m.Prof.Mispredict
	steps, cycles := st.steps, st.cycles
	pc := int32(0)

loop:
	for {
		in := &code[pc]
		steps++
		if steps > maxSteps {
			st.steps, st.cycles = steps, cycles
			return Val{}, ErrStepLimit
		}
		cycles += in.cost
		switch in.op {
		case bcAddI:
			frame[in.dst].I = wrapI(in.k, frame[in.a].I+frame[in.b].I)
		case bcSubI:
			frame[in.dst].I = wrapI(in.k, frame[in.a].I-frame[in.b].I)
		case bcMulI:
			frame[in.dst].I = wrapI(in.k, frame[in.a].I*frame[in.b].I)
		case bcAndI:
			frame[in.dst].I = frame[in.a].I & frame[in.b].I
		case bcOrI:
			frame[in.dst].I = frame[in.a].I | frame[in.b].I
		case bcXorI:
			frame[in.dst].I = frame[in.a].I ^ frame[in.b].I
		case bcShlI:
			frame[in.dst].I = wrapI(in.k, frame[in.a].I<<uint64(frame[in.b].I&63))
		case bcLShrI:
			frame[in.dst].I = wrapI(in.k, int64(uint64(frame[in.a].I)>>uint64(frame[in.b].I&63)))
		case bcAShrI:
			frame[in.dst].I = wrapI(in.k, frame[in.a].I>>uint64(frame[in.b].I&63))
		case bcSDivI:
			a, b := frame[in.a].I, frame[in.b].I
			if b == 0 {
				st.steps, st.cycles = steps, cycles
				return Val{}, ErrDivByZero
			}
			if a == math.MinInt64 && b == -1 {
				frame[in.dst].I = a
			} else {
				frame[in.dst].I = wrapI(in.k, a/b)
			}
		case bcSRemI:
			a, b := frame[in.a].I, frame[in.b].I
			if b == 0 {
				st.steps, st.cycles = steps, cycles
				return Val{}, ErrDivByZero
			}
			if a == math.MinInt64 && b == -1 {
				frame[in.dst].I = 0
			} else {
				frame[in.dst].I = wrapI(in.k, a%b)
			}
		case bcUDivI:
			a, b := frame[in.a].I, frame[in.b].I
			if b == 0 {
				st.steps, st.cycles = steps, cycles
				return Val{}, ErrDivByZero
			}
			frame[in.dst].I = wrapI(in.k, int64(uint64(a)/uint64(b)))
		case bcFAdd:
			frame[in.dst].F = frame[in.a].F + frame[in.b].F
		case bcFSub:
			frame[in.dst].F = frame[in.a].F - frame[in.b].F
		case bcFMul:
			frame[in.dst].F = frame[in.a].F * frame[in.b].F
		case bcFDiv:
			frame[in.dst].F = frame[in.a].F / frame[in.b].F
		case bcICmp:
			frame[in.dst].I = boolVal(ir.Compare(ir.CmpPred(in.pr), frame[in.a].I, frame[in.b].I))
		case bcFCmp:
			frame[in.dst].I = boolVal(ir.Compare(ir.CmpPred(in.pr), frame[in.a].F, frame[in.b].F))
		case bcSelect:
			if frame[in.a].I != 0 {
				frame[in.dst] = frame[in.b]
			} else {
				frame[in.dst] = frame[in.c]
			}

		case bcMove:
			frame[in.dst] = frame[in.a]
		case bcZExt:
			frame[in.dst].I = frame[in.a].I & in.imm
		case bcTruncW:
			frame[in.dst].I = ir.WrapInt(ir.Kind(in.k), frame[in.a].I)
		case bcSIToFP:
			frame[in.dst].F = float64(frame[in.a].I)
		case bcFPToSI:
			frame[in.dst].I = ir.WrapInt(ir.Kind(in.k), int64(frame[in.a].F))
		case bcF32:
			frame[in.dst].F = float64(float32(frame[in.a].F))

		case bcGEP:
			frame[in.dst].I = frame[in.a].I + frame[in.b].I

		case bcLoad:
			addr := frame[in.a].I
			if in.b <= 1 {
				if addr < 0 || addr+1 > int64(len(st.mem)) {
					st.steps, st.cycles = steps, cycles
					return Val{}, ErrSegfault
				}
				if st.touchLine(addr >> st.lineShift) {
					cycles += st.costLoadHit
				} else {
					cycles += st.costLoadMiss
				}
				c := &st.mem[addr]
				if kindFloat(in.k) {
					frame[in.dst].F = c.f
				} else {
					frame[in.dst].I = c.i
				}
			} else {
				st.steps, st.cycles = steps, cycles
				v, err := st.load(addr, ir.Type{Kind: ir.Kind(in.k), Lanes: int(in.b)})
				if err != nil {
					return Val{}, err
				}
				cycles = st.cycles
				frame[in.dst] = v
			}

		case bcStore:
			addr := frame[in.b].I
			if in.c <= 1 {
				if addr < 0 || addr+1 > int64(len(st.mem)) {
					st.steps, st.cycles = steps, cycles
					return Val{}, ErrSegfault
				}
				hit := st.touchLine(addr >> st.lineShift)
				cycles += st.costStore
				if !hit {
					cycles += st.costStoreFill
				}
				st.dirty(addr + 1)
				if kindFloat(in.k) {
					st.mem[addr].f = frame[in.a].F
				} else {
					st.mem[addr].i = ir.WrapInt(ir.Kind(in.k), frame[in.a].I)
				}
			} else {
				st.steps, st.cycles = steps, cycles
				if err := st.store(addr, ir.Type{Kind: ir.Kind(in.k), Lanes: int(in.c)}, frame[in.a]); err != nil {
					return Val{}, err
				}
				cycles = st.cycles
			}

		case bcAlloca:
			words := in.imm
			if st.sp+words > int64(len(st.mem)) {
				st.steps, st.cycles = steps, cycles
				return Val{}, ErrStack
			}
			base := st.sp
			for i := int64(0); i < words; i++ {
				st.mem[base+i] = cell{}
			}
			st.sp += words
			frame[in.dst].I = base

		case bcGen:
			g := &fn.gens[in.aux]
			var ops [3]Val
			if g.nops > 0 {
				ops[0] = frame[in.a]
			}
			if g.nops > 1 {
				ops[1] = frame[in.b]
			}
			if g.nops > 2 {
				ops[2] = frame[in.c]
			}
			v, err := evalPureOp(g, &ops)
			if err != nil {
				st.steps, st.cycles = steps, cycles
				return Val{}, err
			}
			frame[in.dst] = v

		case bcBr:
			// The 2-bit saturating predictor, indexed by lowered branch site.
			taken := frame[in.a].I != 0
			cycles += brCost
			bp := &st.bpred[fn.brBase+in.aux]
			state := *bp
			if (state >= 2) != taken {
				cycles += mispredict
			}
			if taken {
				if state < 3 {
					*bp = state + 1
				}
				pc = in.b
			} else {
				if state > 0 {
					*bp = state - 1
				}
				pc = in.c
			}
			continue loop

		case bcJmp:
			pc = in.b
			continue loop

		case bcSwitch:
			v := frame[in.a].I
			cycles += st.prog.swExtra
			sw := &fn.switches[in.aux]
			t := sw.offs[0]
			for ci, cv := range sw.vals {
				if cv == v {
					t = sw.offs[ci+1]
					break
				}
			}
			pc = t
			continue loop

		case bcEdge:
			r := fn.phiRanges[in.aux]
			moves := fn.phiMoves[r.off : r.off+r.n]
			if cap(st.phiTmp) < len(moves) {
				st.phiTmp = make([]Val, len(moves))
			}
			tmp := st.phiTmp[:len(moves)]
			for i := range moves {
				tmp[i] = frame[moves[i].src]
			}
			steps += int64(len(moves)) - 1
			for i := range moves {
				frame[moves[i].dst] = tmp[i]
			}
			pc = in.b
			continue loop

		case bcRet:
			st.sp = savedSP
			st.steps, st.cycles = steps, cycles
			return frame[in.a], nil

		case bcRetVoid:
			st.sp = savedSP
			st.steps, st.cycles = steps, cycles
			return Val{}, nil

		case bcCall:
			r := fn.argRanges[in.aux]
			argv := st.getVals(int(r.n))
			for i := int32(0); i < r.n; i++ {
				argv[i] = frame[fn.args[r.off+i]]
			}
			st.steps, st.cycles = steps, cycles
			callee := fn.callees[in.b]
			if callee < 0 {
				return Val{}, fmt.Errorf("%w: %s", ErrNoFunction, fn.calleeNames[in.b])
			}
			v, err := st.call(callee, argv)
			if err != nil {
				return Val{}, err
			}
			steps, cycles = st.steps, st.cycles
			frame[in.dst] = v
			st.putVals(argv)

		case bcCallB:
			r := fn.argRanges[in.aux]
			argv := st.getVals(int(r.n))
			for i := int32(0); i < r.n; i++ {
				argv[i] = frame[fn.args[r.off+i]]
			}
			st.steps, st.cycles = steps, cycles
			v, err := st.builtin(fn.names[in.imm], argv)
			if err != nil {
				return Val{}, err
			}
			cycles = st.cycles
			frame[in.dst] = v
			st.putVals(argv)

		default:
			st.steps, st.cycles = steps, cycles
			return Val{}, fmt.Errorf("machine: bad bytecode op %d", in.op)
		}
		pc++
	}
}
