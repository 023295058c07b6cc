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

// slotVal reads an operand slot: frame register when >= 0, constant pool
// otherwise.
func slotVal(frame, consts []Val, s int32) Val {
	if s >= 0 {
		return frame[s]
	}
	return consts[^s]
}

func slotI(frame, consts []Val, s int32) int64 {
	if s >= 0 {
		return frame[s].I
	}
	return consts[^s].I
}

func slotF(frame, consts []Val, s int32) float64 {
	if s >= 0 {
		return frame[s].F
	}
	return consts[^s].F
}

func kindFloat(k uint8) bool {
	return k == uint8(ir.F32) || k == uint8(ir.F64)
}

// cmpI mirrors cmpVal's scalar integer path.
func cmpI(pred uint8, a, b int64) int64 {
	var r bool
	switch ir.CmpPred(pred) {
	case ir.CmpEQ:
		r = a == b
	case ir.CmpNE:
		r = a != b
	case ir.CmpSLT:
		r = a < b
	case ir.CmpSLE:
		r = a <= b
	case ir.CmpSGT:
		r = a > b
	case ir.CmpSGE:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

// cmpF mirrors cmpVal's scalar float path.
func cmpF(pred uint8, a, b float64) int64 {
	var r bool
	switch ir.CmpPred(pred) {
	case ir.CmpEQ:
		r = a == b
	case ir.CmpNE:
		r = a != b
	case ir.CmpSLT:
		r = a < b
	case ir.CmpSLE:
		r = a <= b
	case ir.CmpSGT:
		r = a > b
	case ir.CmpSGE:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

// wrapKI re-wraps an integer fast-op result to its declared width, exactly
// like binScalar (the i64 hot path skips the call).
func wrapKI(k uint8, v int64) Val {
	if kk := ir.Kind(k); kk != ir.I64 {
		v = ir.WrapInt(kk, v)
	}
	return Val{I: v}
}

// genEval executes a generic (non-fast-path) value op. It mirrors the
// tree-walker's evalPure case for case, reusing the same binVal / cmpVal /
// selectVal / castVal helpers and error messages.
func genEval(g *genOp, ops *[3]Val) (Val, error) {
	switch {
	case g.op.IsBinary():
		return binVal(g.op, g.ty, ops[0], ops[1])
	case g.op == ir.OpICmp:
		return cmpVal(g.pred, g.opTy, ops[0], ops[1], false)
	case g.op == ir.OpFCmp:
		return cmpVal(g.pred, g.opTy, ops[0], ops[1], true)
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
	machinePoolGets.Add(1)
	need := img.GlobalWords + m.StackWords
	st := m.bcPool.get()
	if st == nil || int64(cap(st.mem)) < need || len(st.dtags) != m.Prof.DCacheLines {
		machinePoolNews.Add(1)
		st = &bcState{runCore: runCore{
			mem:   make([]cell, need),
			dtags: make([]int64, m.Prof.DCacheLines),
		}}
	} else {
		if st.hi > img.GlobalWords {
			scrub := st.mem[img.GlobalWords:st.hi]
			for i := range scrub {
				scrub[i] = cell{}
			}
		}
		st.mem = st.mem[:need]
	}
	st.m, st.prog = m, prog
	st.prepMemModel()
	st.sp, st.hi = img.GlobalWords, img.GlobalWords
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
	for i := range st.dtags {
		st.dtags[i] = -1
	}
	return st
}

func (m *Machine) releaseBC(st *bcState) {
	st.prog = nil
	st.out = nil
	m.bcPool.put(st)
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

// chargeBr models the 2-bit saturating predictor, indexed by lowered branch
// site instead of *ir.Instr.
func (st *bcState) chargeBr(idx int32, taken bool) {
	p := &st.m.Prof
	st.cycles += p.Branch
	state := st.bpred[idx]
	predictTaken := state >= 2
	if predictTaken != taken {
		st.cycles += p.Mispredict
	}
	if taken && state < 3 {
		state++
	} else if !taken && state > 0 {
		state--
	}
	st.bpred[idx] = state
}

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
	savedSP := st.sp

	code := fn.code
	consts := fn.consts
	maxSteps := st.m.MaxSteps
	pc := int32(0)

loop:
	for {
		in := &code[pc]
		st.steps++
		if st.steps > maxSteps {
			return Val{}, ErrStepLimit
		}
		st.cycles += in.cost
		switch in.op {
		case bcAddI:
			frame[in.dst] = wrapKI(in.k, slotI(frame, consts, in.a)+slotI(frame, consts, in.b))
		case bcSubI:
			frame[in.dst] = wrapKI(in.k, slotI(frame, consts, in.a)-slotI(frame, consts, in.b))
		case bcMulI:
			frame[in.dst] = wrapKI(in.k, slotI(frame, consts, in.a)*slotI(frame, consts, in.b))
		case bcAndI:
			frame[in.dst] = Val{I: slotI(frame, consts, in.a) & slotI(frame, consts, in.b)}
		case bcOrI:
			frame[in.dst] = Val{I: slotI(frame, consts, in.a) | slotI(frame, consts, in.b)}
		case bcXorI:
			frame[in.dst] = Val{I: slotI(frame, consts, in.a) ^ slotI(frame, consts, in.b)}
		case bcShlI:
			frame[in.dst] = wrapKI(in.k, slotI(frame, consts, in.a)<<uint64(slotI(frame, consts, in.b)&63))
		case bcLShrI:
			frame[in.dst] = wrapKI(in.k, int64(uint64(slotI(frame, consts, in.a))>>uint64(slotI(frame, consts, in.b)&63)))
		case bcAShrI:
			frame[in.dst] = wrapKI(in.k, slotI(frame, consts, in.a)>>uint64(slotI(frame, consts, in.b)&63))
		case bcSDivI:
			a, b := slotI(frame, consts, in.a), slotI(frame, consts, in.b)
			if b == 0 {
				return Val{}, ErrDivByZero
			}
			if a == math.MinInt64 && b == -1 {
				frame[in.dst] = Val{I: a}
			} else {
				frame[in.dst] = wrapKI(in.k, a/b)
			}
		case bcSRemI:
			a, b := slotI(frame, consts, in.a), slotI(frame, consts, in.b)
			if b == 0 {
				return Val{}, ErrDivByZero
			}
			if a == math.MinInt64 && b == -1 {
				frame[in.dst] = Val{I: 0}
			} else {
				frame[in.dst] = wrapKI(in.k, a%b)
			}
		case bcUDivI:
			a, b := slotI(frame, consts, in.a), slotI(frame, consts, in.b)
			if b == 0 {
				return Val{}, ErrDivByZero
			}
			frame[in.dst] = wrapKI(in.k, int64(uint64(a)/uint64(b)))
		case bcFAdd:
			frame[in.dst] = Val{F: slotF(frame, consts, in.a) + slotF(frame, consts, in.b)}
		case bcFSub:
			frame[in.dst] = Val{F: slotF(frame, consts, in.a) - slotF(frame, consts, in.b)}
		case bcFMul:
			frame[in.dst] = Val{F: slotF(frame, consts, in.a) * slotF(frame, consts, in.b)}
		case bcFDiv:
			frame[in.dst] = Val{F: slotF(frame, consts, in.a) / slotF(frame, consts, in.b)}
		case bcICmp:
			frame[in.dst] = Val{I: cmpI(in.pr, slotI(frame, consts, in.a), slotI(frame, consts, in.b))}
		case bcFCmp:
			frame[in.dst] = Val{I: cmpF(in.pr, slotF(frame, consts, in.a), slotF(frame, consts, in.b))}
		case bcSelect:
			if slotI(frame, consts, in.a) != 0 {
				frame[in.dst] = slotVal(frame, consts, in.b)
			} else {
				frame[in.dst] = slotVal(frame, consts, in.c)
			}

		case bcMove:
			frame[in.dst] = slotVal(frame, consts, in.a)
		case bcZExt:
			frame[in.dst] = Val{I: slotI(frame, consts, in.a) & in.imm}
		case bcTruncW:
			frame[in.dst] = Val{I: ir.WrapInt(ir.Kind(in.k), slotI(frame, consts, in.a))}
		case bcSIToFP:
			frame[in.dst] = Val{F: float64(slotI(frame, consts, in.a))}
		case bcFPToSI:
			frame[in.dst] = Val{I: ir.WrapInt(ir.Kind(in.k), int64(slotF(frame, consts, in.a)))}
		case bcF32:
			frame[in.dst] = Val{F: float64(float32(slotF(frame, consts, in.a)))}

		case bcGEP:
			frame[in.dst] = Val{I: slotI(frame, consts, in.a) + slotI(frame, consts, in.b)}

		case bcLoad:
			addr := slotI(frame, consts, in.a)
			if in.b <= 1 {
				if addr < 0 || addr+1 > int64(len(st.mem)) {
					return Val{}, ErrSegfault
				}
				st.chargeMem(addr, 1, true)
				c := st.mem[addr]
				if kindFloat(in.k) {
					frame[in.dst] = Val{F: c.f}
				} else {
					frame[in.dst] = Val{I: c.i}
				}
			} else {
				v, err := st.load(addr, ir.Type{Kind: ir.Kind(in.k), Lanes: int(in.b)})
				if err != nil {
					return Val{}, err
				}
				frame[in.dst] = v
			}

		case bcStore:
			v := slotVal(frame, consts, in.a)
			addr := slotI(frame, consts, in.b)
			if in.c <= 1 {
				if addr < 0 || addr+1 > int64(len(st.mem)) {
					return Val{}, ErrSegfault
				}
				st.chargeMem(addr, 1, false)
				st.dirty(addr + 1)
				if kindFloat(in.k) {
					st.mem[addr].f = v.F
				} else {
					st.mem[addr].i = ir.WrapInt(ir.Kind(in.k), v.I)
				}
			} else {
				if err := st.store(addr, ir.Type{Kind: ir.Kind(in.k), Lanes: int(in.c)}, v); err != nil {
					return Val{}, err
				}
			}

		case bcAlloca:
			words := in.imm
			if st.sp+words > int64(len(st.mem)) {
				return Val{}, ErrStack
			}
			base := st.sp
			for i := int64(0); i < words; i++ {
				st.mem[base+i] = cell{}
			}
			st.sp += words
			frame[in.dst] = Val{I: base}

		case bcGen:
			g := &fn.gens[in.aux]
			var ops [3]Val
			if g.nops > 0 {
				ops[0] = slotVal(frame, consts, in.a)
			}
			if g.nops > 1 {
				ops[1] = slotVal(frame, consts, in.b)
			}
			if g.nops > 2 {
				ops[2] = slotVal(frame, consts, in.c)
			}
			v, err := genEval(g, &ops)
			if err != nil {
				return Val{}, err
			}
			frame[in.dst] = v

		case bcBr:
			taken := slotI(frame, consts, in.a) != 0
			st.chargeBr(in.aux, taken)
			if taken {
				pc = in.b
			} else {
				pc = in.c
			}
			continue loop

		case bcJmp:
			pc = in.b
			continue loop

		case bcSwitch:
			v := slotI(frame, consts, in.a)
			st.cycles += st.prog.swExtra
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
				tmp[i] = slotVal(frame, consts, moves[i].src)
			}
			st.steps += int64(len(moves)) - 1
			for i := range moves {
				frame[moves[i].dst] = tmp[i]
			}
			pc = in.b
			continue loop

		case bcRet:
			st.sp = savedSP
			return slotVal(frame, consts, in.a), nil

		case bcRetVoid:
			st.sp = savedSP
			return Val{}, nil

		case bcCall:
			r := fn.argRanges[in.aux]
			argv := st.getVals(int(r.n))
			for i := int32(0); i < r.n; i++ {
				argv[i] = slotVal(frame, consts, fn.args[r.off+i])
			}
			if in.b < 0 {
				return Val{}, fmt.Errorf("%w: %s", ErrNoFunction, fn.names[in.imm])
			}
			v, err := st.call(in.b, argv)
			if err != nil {
				return Val{}, err
			}
			frame[in.dst] = v
			st.putVals(argv)

		case bcCallB:
			r := fn.argRanges[in.aux]
			argv := st.getVals(int(r.n))
			for i := int32(0); i < r.n; i++ {
				argv[i] = slotVal(frame, consts, fn.args[r.off+i])
			}
			v, err := st.builtin(fn.names[in.imm], argv)
			if err != nil {
				return Val{}, err
			}
			frame[in.dst] = v
			st.putVals(argv)

		default:
			return Val{}, fmt.Errorf("machine: bad bytecode op %d", in.op)
		}
		pc++
	}
}
