package passes

import (
	"repro/internal/ir"
)

func init() {
	register("loop-unroll", "full and partial loop unrolling",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				full, partial := unrollLoops(f, 16, 48, 4)
				st.Add("loop-unroll.NumCompletelyUnrolled", full)
				st.Add("loop-unroll.NumUnrolled", partial)
			})
		})

	register("loop-unroll-full", "aggressive full unrolling only",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				full, _ := unrollLoops(f, 64, 96, 0)
				st.Add("loop-unroll-full.NumCompletelyUnrolled", full)
			})
		})
}

// unrollLoops fully unrolls single-block loops with constant trip count at
// most fullTripMax and body size at most bodyMax, and partially unrolls (by
// `factor`) rotated single-block loops with divisible constant trips.
func unrollLoops(f *ir.Function, fullTripMax int64, bodyMax, factor int) (int, int) {
	full, partial := 0, 0
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l := range li.Loops {
			if l.Preheader == nil || l.Header != l.Latch || len(l.Blocks()) != 1 {
				continue
			}
			b := l.Header
			iv := ir.FindCanonicalIV(cfg, l)
			if iv == nil || iv.Cmp == nil {
				continue
			}
			trip := iv.TripCount()
			if trip <= 0 {
				continue
			}
			// The controlling compare must be used only by the branch and
			// must test the post-increment value (the canonical bottom-test
			// form produced by loop-rotate); pre-increment compares have
			// off-by-one trip semantics we do not model.
			if fu.get().Count(iv.Cmp) != 1 {
				continue
			}
			if iv.Cmp.Ops[0] != iv.Next && iv.Cmp.Ops[1] != iv.Next {
				continue
			}
			exitB := exitTargetOf(cfg, l, b)
			if exitB == nil || exitB.NumPhis() > 0 {
				// Exit phis (from rotation) reference in-loop values; the
				// full unroll handles them by rewriting incomings below, so
				// allow them only on the partial path where block identity
				// is preserved. For full unroll we rewrite them too.
				if exitB == nil {
					continue
				}
			}
			body := len(b.Instrs) - b.NumPhis()
			if trip <= fullTripMax && body <= bodyMax {
				if fullyUnroll(f, cfg, l, iv, trip, exitB, &fu) {
					full++
					changed = true
					break
				}
			}
			if factor > 1 && trip%int64(factor) == 0 && trip > int64(factor) && body*factor <= 160 {
				if partiallyUnroll(cfg, l, iv, factor, &fu) {
					partial++
					changed = true
					break
				}
			}
		}
	}
	return full, partial
}

// bodySub is the value substitution of one unrolled iteration of a block's
// body: a table indexed by position in the block (the block's instructions
// hold consecutive IDs after a Renumber), whose entries count only when
// stamped in the current iteration's mark set.
type bodySub struct {
	b    *ir.Block
	base int
	vals []ir.Value
	sc   *scratch
}

// index returns v's position in the block, or -1 when v is no instruction
// of it.
func (s *bodySub) index(v ir.Value) int {
	if in, ok := v.(*ir.Instr); ok && in != nil {
		if k := in.ID - s.base; uint(k) < uint(len(s.b.Instrs)) && s.b.Instrs[k] == in {
			return k
		}
	}
	return -1
}

// next starts an iteration with an empty substitution.
func (s *bodySub) next() { s.sc.newMarks(len(s.vals)) }

func (s *bodySub) set(in *ir.Instr, v ir.Value) {
	k := s.index(in)
	s.vals[k] = v
	s.sc.mark(k)
}

// lookup returns what the iteration substitutes for v, if anything.
func (s *bodySub) lookup(v ir.Value) (ir.Value, bool) {
	if k := s.index(v); k >= 0 && s.sc.marked(k) {
		return s.vals[k], true
	}
	return nil, false
}

func (s *bodySub) get(v ir.Value) ir.Value {
	if nv, ok := s.lookup(v); ok {
		return nv
	}
	return v
}

// instrSlab hands out the instructions of one burst of new IR, and their
// operand slices, from two arrays sized up front: two allocations for the
// burst instead of two per instruction. An operand slice has capacity equal
// to its length, as a make of that length has, so a later append reallocates
// exactly where it did before. The arrays live as long as any instruction
// carved from them; a build's final compaction copies every body.
type instrSlab struct {
	instrs []ir.Instr
	ops    []ir.Value
}

func newInstrSlab(nInstrs, nOps int) instrSlab {
	return instrSlab{instrs: make([]ir.Instr, nInstrs), ops: make([]ir.Value, nOps)}
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

// cloned reports whether cloneBodyInto clones in.
func cloned(in, skip *ir.Instr) bool {
	return in.Op != ir.OpPhi && !in.IsTerminator() && in != skip
}

// cloneBodyInto clones the non-phi, non-terminator instructions of b other
// than skip, with substitution, from slab, logging them into dst before its
// entry at position at; each clone becomes the substitute of its original.
func cloneBodyInto(dst *ir.Block, at int, b *ir.Block, skip *ir.Instr, sub *bodySub, slab *instrSlab) {
	for _, in := range b.Instrs {
		if !cloned(in, skip) {
			continue
		}
		c := slab.take(len(in.Ops))
		c.Op, c.Ty, c.Pred, c.Callee = in.Op, in.Ty, in.Pred, in.Callee
		c.AllocTy, c.NAlloc, c.Flags = in.AllocTy, in.NAlloc, in.Flags
		for k, op := range in.Ops {
			c.Ops[k] = sub.get(op)
		}
		dst.Insert(at, c)
		sub.set(in, c)
	}
}

// fullyUnroll replaces a single-block counted loop with trip straight-line
// copies of its body. It leaves fu coherent when it declines and without an
// index when it unrolls.
func fullyUnroll(f *ir.Function, cfg *ir.CFG, l *ir.Loop, iv *ir.CanonicalIV, trip int64, exitB *ir.Block, fu *funcUses) bool {
	b := l.Header
	phis := b.Phis()
	initOf := make([]ir.Value, len(phis))
	nextOf := make([]ir.Value, len(phis))
	for pi, p := range phis {
		if len(p.Ops) != 2 {
			return false
		}
		for i, fb := range p.Blocks {
			if l.Contains(fb) {
				nextOf[pi] = p.Ops[i]
			} else {
				initOf[pi] = p.Ops[i]
			}
		}
		if initOf[pi] == nil || nextOf[pi] == nil {
			return false
		}
	}

	// Build the straight-line body in a fresh block: every clone goes before
	// its jump, in one splice.
	nb := &ir.Block{Name: b.Name + "_unr"}
	ir.AttachBlock(nb, f)
	nb.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{exitB}})
	sc := getScratch()
	defer putScratch(sc)
	f.Renumber()
	sub := &bodySub{b: b, base: b.Instrs[0].ID, vals: make([]ir.Value, len(b.Instrs)), sc: sc}
	nInstrs, nOps := 0, 0
	for _, in := range b.Instrs {
		if cloned(in, iv.Cmp) {
			nInstrs++
			nOps += len(in.Ops)
		}
	}
	slab := newInstrSlab(int(trip)*nInstrs, int(trip)*nOps)
	cur := initOf // the phis' values entering the iteration
	for k := int64(0); k < trip; k++ {
		sub.next()
		for pi, p := range phis {
			sub.set(p, cur[pi])
		}
		cloneBodyInto(nb, 0, b, iv.Cmp, sub, &slab)
		for pi := range phis {
			cur[pi] = sub.get(nextOf[pi])
		}
	}
	nb.Flush()

	// Rewrite uses elsewhere: loop instrs -> last clones; phis -> final value.
	// nb is not in f.Blocks yet, so the function — and the index — still are
	// as they were when the caller queried it.
	outsideB := func(x ir.Use) bool { return x.User.Parent() != b }
	remapOutside := func(old ir.Value, new ir.Value) {
		fu.setAll(fu.collect(old, outsideB), new)
	}
	for pi, p := range phis {
		remapOutside(p, cur[pi])
	}
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi || in.IsTerminator() {
			continue
		}
		if nv, ok := sub.lookup(in); ok { // the last iteration's clone
			remapOutside(in, nv)
		}
	}
	// Exit phis in exitB: the incoming from b must now come from nb.
	for _, phi := range exitB.Phis() {
		for i, fb := range phi.Blocks {
			if fb == b {
				phi.Blocks[i] = nb
			}
		}
	}
	// Preheader (or guard) edges to b now go to nb.
	for _, p := range cfg.Preds(b) {
		if l.Contains(p) {
			continue
		}
		pt := p.Term()
		for i, tb := range pt.Blocks {
			if tb == b {
				pt.Blocks[i] = nb
			}
		}
	}
	// Replace b with nb in the layout.
	for i, blk := range f.Blocks {
		if blk == b {
			f.Blocks[i] = nb
			break
		}
	}
	fu.drop()
	return true
}

// partiallyUnroll widens a rotated single-block loop body by `factor`,
// stepping the IV factor times per latch test. It leaves fu coherent.
func partiallyUnroll(cfg *ir.CFG, l *ir.Loop, iv *ir.CanonicalIV, factor int, fu *funcUses) bool {
	b := l.Header
	t := b.Term()
	if t.Op != ir.OpBr {
		return false // not rotated: top-test single block loop has br too; require bottom test via cmp in same block
	}
	phis := b.Phis()
	nextOf := make(map[*ir.Instr]ir.Value)
	for _, p := range phis {
		for i, fb := range p.Blocks {
			if l.Contains(fb) {
				nextOf[p] = p.Ops[i]
			}
		}
		if nextOf[p] == nil {
			return false
		}
	}
	// Snapshot the original body (everything but phis, the compare and the
	// terminator) before cloning starts.
	var originals []*ir.Instr
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi || in.IsTerminator() || in == iv.Cmp {
			continue
		}
		originals = append(originals, in)
	}
	fu.drop() // the cloning below goes behind the index's back
	insertAt := b.IndexOf(t)
	cur := loopSub{}
	for _, p := range phis {
		cur[p] = nextOf[p]
	}
	lastSub := loopSub{}
	for k := 1; k < factor; k++ {
		iterSub := loopSub{}
		for v, s := range cur {
			iterSub[v] = s
		}
		for _, in := range originals {
			c := &ir.Instr{Op: in.Op, Ty: in.Ty, Pred: in.Pred, Callee: in.Callee,
				AllocTy: in.AllocTy, NAlloc: in.NAlloc, Flags: in.Flags}
			for _, op := range in.Ops {
				c.Ops = append(c.Ops, iterSub.get(op))
			}
			b.InsertBefore(insertAt, c)
			insertAt++
			iterSub[in] = c
		}
		nextCur := loopSub{}
		for _, p := range phis {
			nextCur[p] = iterSub.get(nextOf[p])
		}
		cur = nextCur
		lastSub = iterSub
	}
	// Phi latch incomings now take the final copies' values.
	for _, p := range phis {
		for i, fb := range p.Blocks {
			if l.Contains(fb) {
				p.Ops[i] = cur[p]
			}
		}
	}
	// The compare must test the final IV value.
	for oi, op := range iv.Cmp.Ops {
		if op == iv.Next {
			iv.Cmp.Ops[oi] = cur[iv.Phi]
		} else if op == iv.Phi {
			// Pre-increment compare: test the value entering the next
			// iteration, i.e. the final copy's phi substitute.
			iv.Cmp.Ops[oi] = cur[iv.Phi]
		}
	}
	// Move the cmp to just before the terminator (operands may be defined by
	// late clones).
	if idx := b.IndexOf(iv.Cmp); idx >= 0 {
		b.RemoveAt(idx)
		b.InsertBefore(b.IndexOf(t), iv.Cmp)
	}
	// Uses outside the loop of original body values refer to the last
	// iteration executed: remap to final copies.
	outsideB := func(x ir.Use) bool { return x.User.Parent() != b }
	for _, in := range originals {
		if nv, ok := lastSub[in]; ok {
			fu.setAll(fu.collect(in, outsideB), nv)
		}
	}
	_ = cfg
	return true
}
