package machine

import (
	"math"

	"repro/internal/ir"
)

// This file implements the bytecode lowering stage: a one-time compiler from
// a linked Image to a dense instruction stream executed by the flat dispatch
// loop in bcexec.go. Lowering resolves every ir.Value operand to a register
// slot (frame index) or constant-pool index, branch targets to instruction
// offsets, callees to function indices and builtins to name-table entries,
// so execution never chases ir.Instr pointers, allocates eval closures or
// consults the Funcs map.
//
// Lowering is read-only over the (possibly COW-shared) modules. The lowered
// program is kept on the Image it was lowered from, beside the Profile whose
// costs are baked into it, so a second Run of the same image does not lower
// again. An image the lowerer cannot express fails Run with ErrUnlowerable.
// The tree-walker is the behavioural oracle: the engines are bit-identical in
// Result (Output, Cycles, Steps, Ret, FuncCycles) and in errors.

// bcOp enumerates bytecode opcodes. Operand meanings are documented per op;
// "slot" is a frame register index when >= 0 and a constant-pool index
// (^slot) when negative.
type bcOp uint8

const (
	bcNop bcOp = iota

	// Control flow.
	bcJmp     // b = target offset
	bcBr      // a = cond slot, b = taken offset, c = not-taken offset, aux = predictor index
	bcSwitch  // a = value slot, aux = switch-table index
	bcRet     // a = value slot
	bcRetVoid //
	bcEdge    // phi parallel copy: aux = copy range, b = target offset

	// Memory.
	bcAlloca // imm = words, dst
	bcLoad   // a = addr slot, k = kind, b = lanes (<=1 scalar), dst
	bcStore  // a = value slot, b = addr slot, k = kind, c = lanes
	bcGEP    // dst = a.I + b.I

	// Calls. b = callee function index / builtin presence flag; b < 0 means
	// unresolved with imm = name-table index (error or builtin dispatch by
	// name at run time, preserving tree-walker error parity).
	bcCall  // b = function index, aux = arg range, dst
	bcCallB // imm = builtin name index, aux = arg range, dst

	// Scalar fast ops (dst, a, b). Integer forms carry the result kind in k
	// and re-wrap sub-64 widths exactly like binScalar (i64 skips the wrap).
	bcAddI
	bcSubI
	bcMulI
	bcAndI
	bcOrI
	bcXorI
	bcShlI
	bcLShrI
	bcAShrI
	bcSDivI
	bcSRemI
	bcUDivI
	bcFAdd
	bcFSub
	bcFMul
	bcFDiv
	bcICmp   // pr = predicate
	bcFCmp   // pr = predicate
	bcSelect // a = cond, b = if-true, c = if-false

	// Scalar casts (dst, a), mirroring castVal's scalar arm.
	bcMove   // identity copy (sext; zext/fpext/fptrunc when value-preserving)
	bcZExt   // imm = source-width mask
	bcTruncW // k = destination kind (WrapInt)
	bcSIToFP //
	bcFPToSI // k = destination kind (WrapInt)
	bcF32    // round through float32 (fpext/fptrunc to f32)

	// Generic fallback: aux = genOps index, slots in a,b,c (gens[aux].nops).
	bcGen
)

// bcInstr is one lowered instruction. cost is its static opCost under the
// profile it was lowered for.
type bcInstr struct {
	op   bcOp
	k    uint8 // element kind (ir.Kind) for memory ops
	pr   uint8 // cmp predicate
	dst  int32
	a    int32
	b    int32
	c    int32
	aux  int32
	imm  int64
	cost float64
}

// genOp carries the static ir facts the generic evaluator needs; it reuses
// the tree-walker's binVal/cmpVal/selectVal/castVal helpers verbatim.
type genOp struct {
	op   ir.Op
	pred ir.CmpPred
	ty   ir.Type // result type
	opTy ir.Type // first operand's static type (cmp/cast/reduce)
	nops int
}

type phiMove struct{ dst, src int32 }

type slotRange struct{ off, n int32 }

type bcSwitchTab struct {
	vals []int64
	offs []int32 // offs[0] = default, offs[i+1] pairs with vals[i]
}

// bcFunc is one lowered function.
type bcFunc struct {
	name      string
	nParams   int32
	frame     int32 // registers: params then one slot per instruction ID
	size      int   // static ir instruction count (i-cache footprint)
	code      []bcInstr
	consts    []Val
	gens      []genOp
	args      []int32 // flattened call-argument slots
	argRanges []slotRange
	phiMoves  []phiMove
	phiRanges []slotRange
	switches  []bcSwitchTab
	names     []string // callee/builtin names for unresolved calls
}

// bcProgram is a lowered image.
type bcProgram struct {
	funcs   []bcFunc
	funcIdx map[string]int32
	nBranch int32   // predictor table size
	swExtra float64 // Branch + Mispredict/2, charged per switch
	bytes   int64
}

// BcStats are cumulative bytecode-engine counters for one Machine: functions
// lowered, bytecode bytes produced, and how many Runs found their image
// already lowered for this machine's profile (CodeHits) or lowered it
// (CodeMisses).
type BcStats struct {
	LoweredFuncs  int64
	BytecodeBytes int64
	CodeHits      int64
	CodeMisses    int64
}

// Sub returns s - o, counter-wise.
func (s BcStats) Sub(o BcStats) BcStats {
	return BcStats{
		LoweredFuncs:  s.LoweredFuncs - o.LoweredFuncs,
		BytecodeBytes: s.BytecodeBytes - o.BytecodeBytes,
		CodeHits:      s.CodeHits - o.CodeHits,
		CodeMisses:    s.CodeMisses - o.CodeMisses,
	}
}

// BcCounters returns a snapshot of the machine's bytecode-engine counters.
func (m *Machine) BcCounters() BcStats {
	m.bcMu.Lock()
	defer m.bcMu.Unlock()
	return m.bcStats
}

// lowered returns img's bytecode program under m's profile, lowering it when
// the image holds none or one lowered for another profile (instruction costs
// are baked in). The image's lock is held across lowering, so concurrent Runs
// of one image lower it once.
func (m *Machine) lowered(img *Image) (*bcProgram, error) {
	img.progMu.Lock()
	prog := img.prog
	hit := prog != nil && img.progProf == m.Prof
	if !hit {
		if prog = lowerImage(img, &m.Prof); prog != nil {
			img.prog, img.progProf = prog, m.Prof
		}
	}
	img.progMu.Unlock()
	if prog == nil {
		return nil, ErrUnlowerable
	}
	m.bcMu.Lock()
	if hit {
		m.bcStats.CodeHits++
	} else {
		m.bcStats.CodeMisses++
		m.bcStats.LoweredFuncs += int64(len(prog.funcs))
		m.bcStats.BytecodeBytes += prog.bytes
	}
	m.bcMu.Unlock()
	return prog, nil
}

// lowerImage compiles every linked function. Returns nil if any construct
// cannot be lowered with exact tree-walker semantics.
func lowerImage(img *Image, prof *Profile) *bcProgram {
	prog := &bcProgram{
		funcIdx: make(map[string]int32, len(img.Funcs)),
		swExtra: prof.Branch + prof.Mispredict/2,
	}
	// Deterministic function order: link order. Duplicate names reaching
	// here are same-pointer (Link rejects conflicting ones).
	var fns []*ir.Function
	for _, mod := range img.Modules {
		for _, f := range mod.Funcs {
			if f.IsDecl || img.Funcs[f.Name] != f {
				continue
			}
			if _, ok := prog.funcIdx[f.Name]; ok {
				continue
			}
			prog.funcIdx[f.Name] = int32(len(fns))
			fns = append(fns, f)
		}
	}
	prog.funcs = make([]bcFunc, len(fns))
	for i, f := range fns {
		fl := &fnLowerer{img: img, prof: prof, prog: prog, f: f}
		if !fl.lower(&prog.funcs[i]) {
			return nil
		}
	}
	for i := range prog.funcs {
		prog.bytes += prog.funcs[i].byteSize()
	}
	return prog
}

// byteSize estimates the memory footprint of the lowered function.
func (fn *bcFunc) byteSize() int64 {
	n := int64(len(fn.code))*40 + int64(len(fn.consts))*40 + int64(len(fn.gens))*24
	n += int64(len(fn.args)+2*len(fn.phiMoves)+2*len(fn.argRanges)+2*len(fn.phiRanges)) * 4
	for _, sw := range fn.switches {
		n += int64(len(sw.vals))*8 + int64(len(sw.offs))*4
	}
	for _, s := range fn.names {
		n += int64(len(s))
	}
	return n
}

// fnLowerer compiles one function.
type fnLowerer struct {
	img  *Image
	prof *Profile
	prog *bcProgram
	f    *ir.Function

	nParams int
	nInstr  int
	out     *bcFunc

	constIdx map[[2]uint64]int32
}

// fastBinCode maps a scalar binary op to its fast opcode. Integer ops are
// fast only at i64 width, where wrapping is the identity.
func fastBinCode(op ir.Op, ty ir.Type) (bcOp, bool) {
	if ty.IsVector() {
		return 0, false
	}
	switch op {
	case ir.OpFAdd:
		return bcFAdd, true
	case ir.OpFSub:
		return bcFSub, true
	case ir.OpFMul:
		return bcFMul, true
	case ir.OpFDiv:
		return bcFDiv, true
	}
	switch ty.Kind {
	case ir.I1, ir.I8, ir.I16, ir.I32, ir.I64:
	default:
		return 0, false
	}
	switch op {
	case ir.OpAdd:
		return bcAddI, true
	case ir.OpSub:
		return bcSubI, true
	case ir.OpMul:
		return bcMulI, true
	case ir.OpAnd:
		return bcAndI, true
	case ir.OpOr:
		return bcOrI, true
	case ir.OpXor:
		return bcXorI, true
	case ir.OpShl:
		return bcShlI, true
	case ir.OpLShr:
		return bcLShrI, true
	case ir.OpAShr:
		return bcAShrI, true
	case ir.OpSDiv:
		return bcSDivI, true
	case ir.OpSRem:
		return bcSRemI, true
	case ir.OpUDiv:
		return bcUDivI, true
	}
	return 0, false
}

// slot resolves an operand to a frame or constant slot.
func (fl *fnLowerer) slot(v ir.Value) (int32, bool) {
	switch t := v.(type) {
	case *ir.Instr:
		if t.ID < 0 || t.ID >= fl.nInstr {
			return 0, false
		}
		return int32(fl.nParams + t.ID), true
	case *ir.Param:
		if t.Index < 0 || t.Index >= fl.nParams {
			return 0, false
		}
		return int32(t.Index), true
	case *ir.Const:
		return fl.constSlot(Val{I: t.I, F: t.F}), true
	case *ir.Global:
		// Missing globals read address 0, exactly like the tree-walker's
		// map-zero behaviour.
		return fl.constSlot(Val{I: fl.img.GlobalAddr[t]}), true
	}
	return 0, false
}

func (fl *fnLowerer) constSlot(v Val) int32 {
	key := [2]uint64{uint64(v.I), math.Float64bits(v.F)}
	if idx, ok := fl.constIdx[key]; ok {
		return ^idx
	}
	idx := int32(len(fl.out.consts))
	fl.out.consts = append(fl.out.consts, v)
	fl.constIdx[key] = idx
	return ^idx
}

func (fl *fnLowerer) dstSlot(in *ir.Instr) (int32, bool) {
	if in.ID < 0 || in.ID >= fl.nInstr {
		return 0, false
	}
	return int32(fl.nParams + in.ID), true
}

func (fl *fnLowerer) nameIdx(s string) int64 {
	for i, n := range fl.out.names {
		if n == s {
			return int64(i)
		}
	}
	fl.out.names = append(fl.out.names, s)
	return int64(len(fl.out.names) - 1)
}

// lower compiles fl.f into out. Reports false when the function contains a
// construct whose exact tree-walker behaviour the bytecode cannot reproduce
// (malformed phis, missing terminators, unknown ops/operand kinds).
func (fl *fnLowerer) lower(out *bcFunc) bool {
	f := fl.f
	fl.out = out
	fl.nParams = len(f.Params)
	fl.nInstr = f.NumInstrs()
	fl.constIdx = make(map[[2]uint64]int32)
	out.name = f.Name
	out.nParams = int32(fl.nParams)
	out.frame = int32(fl.nParams + fl.nInstr)
	out.size = fl.img.funcSize[f]
	if len(f.Blocks) == 0 {
		return false
	}

	// Plan: per-block phi prefixes and body offsets.
	phisOf := make([][]*ir.Instr, len(f.Blocks))
	blockOff := make(map[*ir.Block]int32, len(f.Blocks))
	off := int32(0)
	for bi, b := range f.Blocks {
		phis := b.Phis()
		if bi == 0 && len(phis) > 0 {
			return false // phi at entry always faults in the tree-walker
		}
		body := b.Instrs[len(phis):]
		for _, in := range body {
			if in.Op == ir.OpPhi {
				return false
			}
		}
		if b.Term() == nil {
			return false
		}
		phisOf[bi] = phis
		blockOff[b] = off
		off += int32(len(body))
	}
	bodyLen := off

	// Plan edge trampolines: any edge into a block with phis jumps through a
	// bcEdge performing the parallel copy. Shared per (pred, succ).
	blockIdx := make(map[*ir.Block]int, len(f.Blocks))
	for bi, b := range f.Blocks {
		blockIdx[b] = bi
	}
	type edgeKey struct{ pred, succ *ir.Block }
	edgeOff := make(map[edgeKey]int32)
	var tramps []edgeKey
	for _, b := range f.Blocks {
		for _, succ := range b.Term().Blocks {
			si, ok := blockIdx[succ]
			if !ok {
				return false // foreign target block
			}
			if len(phisOf[si]) == 0 {
				continue
			}
			key := edgeKey{b, succ}
			if _, dup := edgeOff[key]; dup {
				continue
			}
			edgeOff[key] = bodyLen + int32(len(tramps))
			tramps = append(tramps, key)
		}
	}
	target := func(pred, succ *ir.Block) int32 {
		if o, ok := edgeOff[edgeKey{pred, succ}]; ok {
			return o
		}
		return blockOff[succ]
	}

	// Emit block bodies.
	code := make([]bcInstr, 0, int(bodyLen)+len(tramps))
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs[len(phisOf[bi]):] {
			bc, ok := fl.emit(in, b, target)
			if !ok {
				return false
			}
			code = append(code, bc)
		}
	}
	// Emit trampolines.
	for _, e := range tramps {
		start := int32(len(out.phiMoves))
		for _, phi := range phisOf[blockIdx[e.succ]] {
			found := false
			for i, from := range phi.Blocks {
				if from != e.pred {
					continue
				}
				if i >= len(phi.Ops) {
					return false
				}
				src, ok := fl.slot(phi.Ops[i])
				if !ok {
					return false
				}
				dst, ok := fl.dstSlot(phi)
				if !ok {
					return false
				}
				out.phiMoves = append(out.phiMoves, phiMove{dst: dst, src: src})
				found = true
				break
			}
			if !found {
				return false // tree-walker faults on this edge; don't lower
			}
		}
		aux := int32(len(out.phiRanges))
		out.phiRanges = append(out.phiRanges, slotRange{off: start, n: int32(len(out.phiMoves)) - start})
		code = append(code, bcInstr{op: bcEdge, aux: aux, b: blockOff[e.succ]})
	}
	out.code = code
	return true
}

// emit lowers one instruction of block b.
func (fl *fnLowerer) emit(in *ir.Instr, b *ir.Block, target func(pred, succ *ir.Block) int32) (bcInstr, bool) {
	cost := fl.prof.opCost(in)
	out := bcInstr{cost: cost}
	switch in.Op {
	case ir.OpAlloca:
		dst, ok := fl.dstSlot(in)
		if !ok {
			return out, false
		}
		out.op, out.dst = bcAlloca, dst
		out.imm = int64(in.NAlloc) * int64(max(1, in.AllocTy.Lanes))

	case ir.OpLoad:
		if len(in.Ops) != 1 {
			return out, false
		}
		a, ok1 := fl.slot(in.Ops[0])
		dst, ok2 := fl.dstSlot(in)
		if !ok1 || !ok2 {
			return out, false
		}
		out.op, out.a, out.dst = bcLoad, a, dst
		out.k, out.b = uint8(in.Ty.Kind), int32(in.Ty.Lanes)

	case ir.OpStore:
		if len(in.Ops) != 2 {
			return out, false
		}
		a, ok1 := fl.slot(in.Ops[0])
		p, ok2 := fl.slot(in.Ops[1])
		if !ok1 || !ok2 {
			return out, false
		}
		ty := in.Ops[0].Type()
		out.op, out.a, out.b = bcStore, a, p
		out.k, out.c = uint8(ty.Kind), int32(ty.Lanes)

	case ir.OpGEP:
		if len(in.Ops) != 2 {
			return out, false
		}
		a, ok1 := fl.slot(in.Ops[0])
		idx, ok2 := fl.slot(in.Ops[1])
		dst, ok3 := fl.dstSlot(in)
		if !ok1 || !ok2 || !ok3 {
			return out, false
		}
		out.op, out.a, out.b, out.dst = bcGEP, a, idx, dst

	case ir.OpBr:
		if len(in.Ops) != 1 || len(in.Blocks) != 2 {
			return out, false
		}
		a, ok := fl.slot(in.Ops[0])
		if !ok {
			return out, false
		}
		out.op, out.a = bcBr, a
		out.b, out.c = target(b, in.Blocks[0]), target(b, in.Blocks[1])
		out.aux = fl.prog.nBranch
		fl.prog.nBranch++

	case ir.OpJmp:
		if len(in.Blocks) != 1 {
			return out, false
		}
		out.op, out.b = bcJmp, target(b, in.Blocks[0])

	case ir.OpSwitch:
		if len(in.Ops) != 1 || len(in.Blocks) != len(in.Cases)+1 {
			return out, false
		}
		a, ok := fl.slot(in.Ops[0])
		if !ok {
			return out, false
		}
		tab := bcSwitchTab{offs: make([]int32, len(in.Blocks))}
		if len(in.Cases) > 0 {
			tab.vals = append([]int64(nil), in.Cases...)
		}
		for i, tb := range in.Blocks {
			tab.offs[i] = target(b, tb)
		}
		out.op, out.a, out.aux = bcSwitch, a, int32(len(fl.out.switches))
		fl.out.switches = append(fl.out.switches, tab)

	case ir.OpRet:
		if len(in.Ops) == 0 {
			out.op = bcRetVoid
			break
		}
		a, ok := fl.slot(in.Ops[0])
		if !ok {
			return out, false
		}
		out.op, out.a = bcRet, a

	case ir.OpCall:
		dst, ok := fl.dstSlot(in)
		if !ok {
			return out, false
		}
		start := int32(len(fl.out.args))
		for _, op := range in.Ops {
			s, ok := fl.slot(op)
			if !ok {
				return out, false
			}
			fl.out.args = append(fl.out.args, s)
		}
		out.aux = int32(len(fl.out.argRanges))
		fl.out.argRanges = append(fl.out.argRanges, slotRange{off: start, n: int32(len(in.Ops))})
		out.dst = dst
		if ir.IsBuiltin(in.Callee) {
			out.op, out.imm = bcCallB, fl.nameIdx(in.Callee)
		} else if fi, ok := fl.prog.funcIdx[in.Callee]; ok {
			out.op, out.b = bcCall, fi
		} else {
			out.op, out.b, out.imm = bcCall, -1, fl.nameIdx(in.Callee)
		}

	default:
		return fl.emitValue(in, cost)
	}
	return out, true
}

// emitValue lowers a pure value-producing instruction (arithmetic, compare,
// select, cast, vector ops) to a fast opcode or the generic fallback.
func (fl *fnLowerer) emitValue(in *ir.Instr, cost float64) (bcInstr, bool) {
	out := bcInstr{cost: cost}
	dst, ok := fl.dstSlot(in)
	if !ok {
		return out, false
	}
	out.dst = dst

	if code, ok := fastBinCode(in.Op, in.Ty); ok && len(in.Ops) == 2 {
		a, ok1 := fl.slot(in.Ops[0])
		b, ok2 := fl.slot(in.Ops[1])
		if ok1 && ok2 {
			out.op, out.a, out.b, out.k = code, a, b, uint8(in.Ty.Kind)
			return out, true
		}
		return out, false
	}
	if in.Op.IsCast() && len(in.Ops) == 1 && !in.Ty.IsVector() && !in.Ops[0].Type().IsVector() {
		a, ok := fl.slot(in.Ops[0])
		if !ok {
			return out, false
		}
		out.a = a
		from, to := in.Ops[0].Type(), in.Ty
		switch in.Op {
		case ir.OpSExt:
			out.op = bcMove // values are carried sign-extended already
		case ir.OpZExt:
			if bits := from.Kind.Bits(); bits >= 64 {
				out.op = bcMove
			} else {
				out.op, out.imm = bcZExt, int64(1)<<uint(bits)-1
			}
		case ir.OpTrunc:
			out.op, out.k = bcTruncW, uint8(to.Kind)
		case ir.OpSIToFP:
			out.op = bcSIToFP
		case ir.OpFPToSI:
			out.op, out.k = bcFPToSI, uint8(to.Kind)
		case ir.OpFPExt, ir.OpFPTrunc:
			if to.Kind == ir.F32 {
				out.op = bcF32
			} else {
				out.op = bcMove
			}
		default:
			return out, false
		}
		return out, true
	}
	if (in.Op == ir.OpICmp || in.Op == ir.OpFCmp) && len(in.Ops) == 2 &&
		!in.Ty.IsVector() && !in.Ops[0].Type().IsVector() {
		a, ok1 := fl.slot(in.Ops[0])
		b, ok2 := fl.slot(in.Ops[1])
		if !ok1 || !ok2 {
			return out, false
		}
		if in.Op == ir.OpICmp {
			out.op = bcICmp
		} else {
			out.op = bcFCmp
		}
		out.a, out.b, out.pr = a, b, uint8(in.Pred)
		return out, true
	}
	if in.Op == ir.OpSelect && len(in.Ops) == 3 && !in.Ty.IsVector() {
		a, ok1 := fl.slot(in.Ops[0])
		bb, ok2 := fl.slot(in.Ops[1])
		c, ok3 := fl.slot(in.Ops[2])
		if !ok1 || !ok2 || !ok3 {
			return out, false
		}
		out.op, out.a, out.b, out.c = bcSelect, a, bb, c
		return out, true
	}

	// Generic fallback for everything evalPure handles.
	switch {
	case in.Op.IsBinary(), in.Op == ir.OpICmp, in.Op == ir.OpFCmp,
		in.Op == ir.OpSelect, in.Op.IsCast(), in.Op == ir.OpBroadcast,
		in.Op == ir.OpExtractElement, in.Op == ir.OpInsertElement,
		in.Op == ir.OpVecReduceAdd:
	default:
		return out, false
	}
	if len(in.Ops) > 3 {
		return out, false
	}
	g := genOp{op: in.Op, pred: in.Pred, ty: in.Ty, nops: len(in.Ops)}
	if len(in.Ops) > 0 {
		g.opTy = in.Ops[0].Type()
	}
	slots := [3]int32{}
	for i, op := range in.Ops {
		s, ok := fl.slot(op)
		if !ok {
			return out, false
		}
		slots[i] = s
	}
	out.op, out.a, out.b, out.c = bcGen, slots[0], slots[1], slots[2]
	out.aux = int32(len(fl.out.gens))
	fl.out.gens = append(fl.out.gens, g)
	return out, true
}
