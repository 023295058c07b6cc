package passes

import (
	"slices"

	"repro/internal/ir"
)

// Every pass that copies IR — full and partial unrolling, rotation's guard
// and latch tests, unswitching's loop copy, fusion's body transfer and
// callsite-splitting's per-predecessor calls — copies an instruction with
// cloneInstr, rewriting its operands through one valueSub and its successors
// through one blockMap.

// cloneInstr returns a fresh copy of in, with ID 0 and in no block, carved
// from slab: every field a copy carries, Cases copied, operands through sub
// and successors through bm. It is the one way a pass copies an existing
// instruction.
func cloneInstr(in *ir.Instr, sub *valueSub, bm blockMap, slab *instrSlab) *ir.Instr {
	c := slab.take(len(in.Ops))
	c.Op, c.Ty, c.Pred, c.Callee = in.Op, in.Ty, in.Pred, in.Callee
	c.AllocTy, c.NAlloc, c.Flags = in.AllocTy, in.NAlloc, in.Flags
	c.Cases = append([]int64(nil), in.Cases...)
	sub.apply(c.Ops, in.Ops)
	if len(in.Blocks) > 0 {
		c.Blocks = make([]*ir.Block, len(in.Blocks))
		for k, b := range in.Blocks {
			c.Blocks[k] = bm.get(b)
		}
	}
	return c
}

// blockMap maps each block of from to the block at the same position of to
// (a loop's blocks and their copies); every other block maps to itself. The
// zero blockMap is the identity.
type blockMap struct{ from, to []*ir.Block }

func (m blockMap) get(b *ir.Block) *ir.Block {
	if i := slices.Index(m.from, b); i >= 0 {
		return m.to[i]
	}
	return b
}

// valueSub is the value substitution of one round of copying: a table indexed
// by Instr.ID over the instructions of a renumbered function, whose entries
// count only when stamped in the current round's mark set. A lookup checks
// identity first, so a copy (ID 0) or an instruction of another function
// never aliases one of f's. It holds pooled scratch until release.
type valueSub struct {
	byID []*ir.Instr
	vals []ir.Value
	sc   *scratch
}

// newValueSub renumbers f and starts an empty round over its instructions.
func newValueSub(f *ir.Function) valueSub {
	sc := getScratch()
	sc.byID = f.InstrsByID(sc.byID)
	n := len(sc.byID)
	sc.subVals = slices.Grow(sc.subVals[:0], n)[:n]
	sc.newMarks(n)
	return valueSub{byID: sc.byID, vals: sc.subVals, sc: sc}
}

func (s *valueSub) release() { putScratch(s.sc) }

// index returns v's ID when v is an instruction of the function, else -1.
func (s *valueSub) index(v ir.Value) int {
	if in, ok := v.(*ir.Instr); ok && in != nil && uint(in.ID) < uint(len(s.byID)) && s.byID[in.ID] == in {
		return in.ID
	}
	return -1
}

// next starts a round with an empty substitution.
func (s *valueSub) next() { s.sc.newMarks(len(s.vals)) }

// set substitutes v for in, an instruction of the function, in this round.
func (s *valueSub) set(in *ir.Instr, v ir.Value) {
	k := s.index(in)
	s.vals[k] = v
	s.sc.mark(k)
}

// lookup returns what the round substitutes for v, if anything.
func (s *valueSub) lookup(v ir.Value) (ir.Value, bool) {
	if k := s.index(v); k >= 0 && s.sc.marked(k) {
		return s.vals[k], true
	}
	return nil, false
}

func (s *valueSub) get(v ir.Value) ir.Value {
	if nv, ok := s.lookup(v); ok {
		return nv
	}
	return v
}

// apply writes the substitutes of ops to dst, which has their length.
func (s *valueSub) apply(dst, ops []ir.Value) {
	for k, op := range ops {
		dst[k] = s.get(op)
	}
}

// instrSlab hands out the instructions of one burst of new IR, and their
// operand slices, from two arrays sized up front: two allocations for the
// burst instead of two per instruction. An operand slice has capacity equal
// to its length: only phis' operand lists grow (ir.AddIncoming), so no other
// capacity decides anything, and a phi's grows by reallocating, never into
// its neighbour's. The arrays live as long as any instruction carved from
// them; a build's final compaction copies every body.
type instrSlab struct {
	instrs []ir.Instr
	ops    []ir.Value
}

func newInstrSlab(nInstrs, nOps int) instrSlab {
	return instrSlab{instrs: make([]ir.Instr, nInstrs), ops: make([]ir.Value, nOps)}
}

// slabFor returns a slab for n copies of each instruction of ins that keep
// accepts (every one when keep is nil).
func slabFor(n int, ins []*ir.Instr, keep func(*ir.Instr) bool) instrSlab {
	nInstrs, nOps := 0, 0
	for _, in := range ins {
		if keep == nil || keep(in) {
			nInstrs++
			nOps += len(in.Ops)
		}
	}
	return newInstrSlab(n*nInstrs, n*nOps)
}

// take returns a zero instruction with nops nil operands.
func (s *instrSlab) take(nops int) *ir.Instr {
	in := &s.instrs[0]
	s.instrs = s.instrs[1:]
	in.Ops = s.operands(nops)
	return in
}

// operands returns n nil operands, nil when n is 0.
func (s *instrSlab) operands(n int) []ir.Value {
	if n == 0 {
		return nil
	}
	ops := s.ops[:n:n]
	s.ops = s.ops[n:]
	return ops
}
