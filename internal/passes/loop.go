package passes

import (
	"slices"

	"repro/internal/ir"
)

func init() {
	register("loop-simplify", "canonicalise loops: dedicated preheaders",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-simplify.NumPreheaders", insertPreheaders(f))
			})
		})

	register("lcssa", "insert loop-closed SSA phis at exits",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("lcssa.NumLCSSA", insertLCSSAPhis(f))
			})
		})

	register("loop-rotate", "rotate while-loops into guarded do-while form",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-rotate.NumRotated", rotateLoops(m, f))
			})
		})

	register("licm", "hoist loop-invariant computation to the preheader",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				h, hl := hoistInvariants(m, f)
				st.Add("licm.NumHoisted", h)
				st.Add("licm.NumHoistedLoads", hl)
			})
		})

	register("loop-deletion", "delete loops with no observable effects",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-deletion.NumDeleted", deleteDeadLoops(m, f))
			})
		})

	register("loop-idiom", "recognise memset/memcpy loops",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				ms, mc := recognizeIdioms(m, f)
				st.Add("loop-idiom.NumMemSet", ms)
				st.Add("loop-idiom.NumMemCpy", mc)
			})
		})

	register("indvars", "canonicalise induction variables and exit tests",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("indvars.NumLFTR", canonicalizeIVs(f))
			})
		})

	register("simple-loop-unswitch", "hoist invariant branches out of loops",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("simple-loop-unswitch.NumUnswitched", unswitchLoops(m, f))
			})
		})

	register("lsr", "loop strength reduction of IV multiplications",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("lsr.NumStrengthReduced", strengthReduceIVs(f))
			})
		})

	register("loop-sink", "sink preheader computation into the loop",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-sink.NumSunk", sinkIntoLoops(m, f))
			})
		})

	register("loop-instsimplify", "instruction simplification inside loops",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				_, _, li := ir.LoopsOf(f)
				if len(li.Loops) > 0 {
					st.Add("loop-instsimplify.NumSimplified", runInstSimplify(f))
				}
			})
		})

	register("loop-simplifycfg", "CFG cleanup scoped to functions with loops",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				_, _, li := ir.LoopsOf(f)
				if len(li.Loops) > 0 {
					n, _ := simplifyCFG(m, f)
					st.Add("loop-simplifycfg.NumSimpl", n)
				}
			})
		})

	register("loop-data-prefetch", "software-prefetch strided loop loads",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-data-prefetch.NumPrefetches", insertPrefetches(f))
			})
		})

	register("loop-fusion", "fuse adjacent loops with equal trip counts",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-fusion.NumFused", fuseLoops(m, f))
			})
		})
}

// insertPreheaders gives every loop lacking one a dedicated preheader block.
func insertPreheaders(f *ir.Function) int {
	n := 0
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l := range li.Loops {
			if l.Preheader != nil {
				continue
			}
			var outs []*ir.Block
			for _, p := range cfg.Preds(l.Header) {
				if !l.Contains(p) {
					outs = append(outs, p)
				}
			}
			if len(outs) == 0 {
				continue
			}
			ph := &ir.Block{Name: l.Header.Name + "_ph"}
			ir.AttachBlock(ph, f)
			ph.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{l.Header}})
			// Retarget each outside predecessor edge to the preheader; merge
			// header phi incomings from outside preds into a phi in ph when
			// several exist, or a simple retarget when one.
			if len(outs) == 1 {
				p := outs[0]
				pt := p.Term()
				for i, tb := range pt.Blocks {
					if tb == l.Header {
						pt.Blocks[i] = ph
					}
				}
				for _, phi := range l.Header.Phis() {
					for i, fb := range phi.Blocks {
						if fb == p {
							phi.Blocks[i] = ph
						}
					}
				}
			} else {
				for _, phi := range l.Header.Phis() {
					merge := &ir.Instr{Op: ir.OpPhi, Ty: phi.Ty}
					// Move outside incomings into the merge phi.
					for i := 0; i < len(phi.Blocks); i++ {
						if !l.Contains(phi.Blocks[i]) {
							ir.AddIncoming(merge, phi.Ops[i], phi.Blocks[i])
							phi.Ops = append(phi.Ops[:i], phi.Ops[i+1:]...)
							phi.Blocks = append(phi.Blocks[:i], phi.Blocks[i+1:]...)
							i--
						}
					}
					ph.InsertBefore(0, merge)
					ir.AddIncoming(phi, merge, ph)
				}
				for _, p := range outs {
					pt := p.Term()
					for i, tb := range pt.Blocks {
						if tb == l.Header {
							pt.Blocks[i] = ph
						}
					}
				}
				if l.Header.NumPhis() == 0 {
					// no phis: nothing to merge
					_ = outs
				}
			}
			// Insert ph right before the header in layout.
			for i, b := range f.Blocks {
				if b == l.Header {
					f.Blocks = append(f.Blocks, nil)
					copy(f.Blocks[i+1:], f.Blocks[i:len(f.Blocks)-1])
					f.Blocks[i] = ph
					break
				}
			}
			n++
			changed = true
			break // loop info stale; recompute
		}
	}
	return n
}

// insertLCSSAPhis adds single-incoming phis in exit blocks for loop-defined
// values used outside the loop, when the exit has exactly one in-loop pred.
func insertLCSSAPhis(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	cfg, dt, li := ir.LoopsOf(f)
	for _, l := range li.Loops {
		// Handle the common single-exit case only.
		if len(l.Exits) != 1 {
			continue
		}
		// Collect exit blocks (out-of-loop successors of exiting blocks).
		exitBlocks := map[*ir.Block][]*ir.Block{} // exit -> in-loop preds
		for _, e := range l.Exits {
			t := e.Term()
			for _, s := range t.Succs() {
				if !l.Contains(s) {
					exitBlocks[s] = append(exitBlocks[s], e)
				}
			}
		}
		for exit, inPreds := range exitBlocks {
			if len(inPreds) != 1 || len(cfg.Preds(exit)) != 1 {
				continue
			}
			for _, b := range l.Blocks() {
				// The value must dominate the exiting edge, or the new phi's
				// incoming would violate dominance.
				if !dt.Dominates(b, inPreds[0]) {
					continue
				}
				for _, in := range b.Instrs {
					if in.Ty == ir.VoidT {
						continue
					}
					// Uses outside the loop that are not already loop-closed: a
					// phi use whose incoming edge starts in the loop is.
					uses := fu.collect(in, func(x ir.Use) bool {
						return !l.Contains(x.User.Parent()) &&
							!(x.User.Op == ir.OpPhi && l.Contains(x.User.Blocks[x.Slot]))
					})
					if len(uses) == 0 {
						continue
					}
					phi := &ir.Instr{Op: ir.OpPhi, Ty: in.Ty}
					ir.AddIncoming(phi, in, inPreds[0])
					exit.InsertBefore(0, phi)
					fu.inserted(phi)
					fu.setAll(uses, phi)
					n++
				}
			}
		}
	}
	return n
}

// rotateLoops converts top-test loops into guarded bottom-test loops (see
// package documentation for the exact shape requirements).
func rotateLoops(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l := range li.Loops {
			if rotateOne(m, f, cfg, l, &fu) {
				n++
				changed = true
				break
			}
		}
	}
	return n
}

// index returns v's position in the header work, -1 when it is not a work
// instruction of the header H.
func (r *rotateScratch) index(H *ir.Block, v ir.Value) int {
	if in, ok := v.(*ir.Instr); ok && in.Parent() == H {
		return slices.Index(r.work, in)
	}
	return -1
}

// markMoved flags v, when it is header work, and its in-header operand
// closure as moving into the body.
func (r *rotateScratch) markMoved(H *ir.Block, v ir.Value) {
	i := r.index(H, v)
	if i < 0 || r.moved[i] {
		return
	}
	r.moved[i] = true
	for _, op := range r.work[i].Ops {
		r.markMoved(H, op)
	}
}

// rotateOne leaves fu coherent when it declines and without an index when it
// rotates.
func rotateOne(m *ir.Module, f *ir.Function, cfg *ir.CFG, l *ir.Loop, fu *funcUses) bool {
	H, P, L := l.Header, l.Preheader, l.Latch
	if P == nil || L == nil || H == L {
		return false
	}
	ht := H.Term()
	if ht == nil || ht.Op != ir.OpBr {
		return false
	}
	lt := L.Term()
	if lt == nil || lt.Op != ir.OpJmp {
		return false
	}
	var body, exitB *ir.Block
	bodyIdx := -1
	for i, s := range ht.Blocks {
		if l.Contains(s) {
			body, bodyIdx = s, i
		} else {
			exitB = s
		}
	}
	if body == nil || exitB == nil || body == H {
		return false
	}
	// Only the header may exit the loop; exit block must be simple.
	for _, b := range l.Blocks() {
		if b == H {
			continue
		}
		for _, s := range cfg.Succs(b) {
			if !l.Contains(s) {
				return false
			}
		}
	}
	if len(cfg.Preds(exitB)) != 1 {
		return false
	}
	if len(cfg.Preds(body)) != 1 {
		return false
	}
	// Exit-block phis must be LCSSA-style: a single incoming from H whose
	// value is a header phi or a loop-invariant value (rewritten below).
	for _, ep := range exitB.Phis() {
		if len(ep.Ops) != 1 || ep.Blocks[0] != H {
			return false
		}
		v := ep.Ops[0]
		if vi, ok := v.(*ir.Instr); ok && vi.Parent() == H && vi.Op != ir.OpPhi {
			return false // value computed in the header's work chain
		}
		if !ir.IsLoopInvariant(l, v) {
			if vi, ok := v.(*ir.Instr); !ok || vi.Op != ir.OpPhi || vi.Parent() != H {
				return false
			}
		}
	}
	// Header non-phi instrs: pure or loads. Uses inside the loop (body or
	// phi latch incomings) are handled by moving the instruction into the
	// body; uses outside the loop block rotation. The header's tables live in
	// pooled scratch, by position.
	sc := getScratch()
	defer putScratch(sc)
	r := &sc.rot
	r.phis = H.AppendPhis(r.phis)
	phis := r.phis
	for _, in := range H.Instrs[len(phis):] {
		if in == ht {
			continue
		}
		if !(isPure(m, in) || in.Op == ir.OpLoad) || mayTrap(in) && in.Op != ir.OpLoad {
			return false
		}
		usedInLoop := false
		for _, x := range fu.get().Of(in) {
			ob := x.User.Parent()
			if ob == H {
				continue
			}
			if !l.Contains(ob) {
				return false
			}
			usedInLoop = true
		}
		r.work = append(r.work, in)
		r.moved = append(r.moved, false)
		if usedInLoop {
			r.used = append(r.used, in)
		}
	}
	// Record phi incomings.
	for _, p := range phis {
		var init, next ir.Value
		for i, fb := range p.Blocks {
			if fb == P {
				init = p.Ops[i]
			} else if fb == L {
				next = p.Ops[i]
			} else {
				return false
			}
		}
		if init == nil || next == nil {
			return false
		}
		r.init = append(r.init, init)
		r.next = append(r.next, next)
	}

	// Partition the work: instructions feeding the phis' latch incomings
	// (per-iteration work that other passes may have hoisted into the
	// header, plus its in-header dependency closure) MOVE into the body; the
	// rest — the exit-condition chain — is cloned into the guard and the
	// latch.
	for _, next := range r.next {
		r.markMoved(H, next)
	}
	for _, in := range r.used {
		r.markMoved(H, in)
	}
	// A moved load observes memory at body start, which matches its
	// original pre-body execution point — UNLESS the surviving condition
	// chain also reads it, in which case the latch clone would see a stale
	// value; bail in that combination.
	movedHasLoad := false
	for i, in := range r.work {
		if r.moved[i] && in.Op == ir.OpLoad {
			movedHasLoad = true
		}
	}
	for i, in := range r.work {
		if r.moved[i] {
			continue
		}
		if movedHasLoad {
			for _, op := range in.Ops {
				if j := r.index(H, op); j >= 0 && r.moved[j] {
					return false
				}
			}
		}
		r.cond = append(r.cond, in)
	}

	// The guard copies every header instruction and the latch the
	// condition chain alone, each round substituting for the phis their
	// values on entry to the loop (guard) or to the next iteration (latch);
	// a moved instruction the latch's chain reads resolves to itself.
	fu.drop() // the rewrite below goes behind the index's back
	sub := sc.valueSub(f)
	cloneInto := func(dst *ir.Block, entering []ir.Value, ins []*ir.Instr) ir.Value {
		sub.next()
		for i, p := range phis {
			sub.set(p, entering[i])
		}
		slab := slabFor(1, ins, nil)
		insertAt := len(dst.Instrs) - 1 // before terminator
		for _, in := range ins {
			c := cloneInstr(in, &sub, blockMap{}, &slab)
			dst.InsertBefore(insertAt, c)
			insertAt++
			sub.set(in, c)
		}
		return sub.get(ht.Ops[0])
	}

	// Guard in the preheader: clone everything with init substitutions.
	condInit := cloneInto(P, r.init, r.work)
	pt := P.Term()
	pt.Op = ir.OpBr
	pt.Ops = []ir.Value{condInit}
	if bodyIdx == 0 {
		pt.Blocks = []*ir.Block{body, exitB}
	} else {
		pt.Blocks = []*ir.Block{exitB, body}
	}

	// Move the per-iteration work to the start of the body (after any
	// pre-existing phis).
	insertAt := body.NumPhis()
	for i, in := range r.work {
		if !r.moved[i] {
			continue
		}
		H.RemoveAt(H.IndexOf(in))
		body.InsertBefore(insertAt, in)
		insertAt++
	}

	// Bottom test in the latch: clone only the condition chain; references
	// to phis become their next values (often the moved body instructions).
	condNext := cloneInto(L, r.next, r.cond)
	lt.Op = ir.OpBr
	lt.Ops = []ir.Value{condNext}
	if bodyIdx == 0 {
		lt.Blocks = []*ir.Block{body, exitB}
	} else {
		lt.Blocks = []*ir.Block{exitB, body}
	}

	// Move phis to the body (incoming pairs unchanged: P and L are exactly
	// the body's new predecessors).
	for i := len(phis) - 1; i >= 0; i-- {
		p := phis[i]
		H.RemoveAt(H.IndexOf(p))
		body.InsertBefore(0, p)
	}

	// The guard's in-loop edge gets a dedicated preheader so downstream loop
	// passes (licm, unroll, vectorise) keep a safe insertion point.
	ph := &ir.Block{Name: body.Name + "_ph"}
	ir.AttachBlock(ph, f)
	ph.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{body}})
	for i, tb := range pt.Blocks {
		if tb == body {
			pt.Blocks[i] = ph
		}
	}
	for _, p := range phis {
		for i, fb := range p.Blocks {
			if fb == P {
				p.Blocks[i] = ph
			}
		}
	}
	for i, blk := range f.Blocks {
		if blk == body {
			f.Blocks = append(f.Blocks, nil)
			copy(f.Blocks[i+1:], f.Blocks[i:len(f.Blocks)-1])
			f.Blocks[i] = ph
			break
		}
	}

	// Rewrite pre-existing LCSSA exit phis: the exit now has two preds
	// (guard P and latch L) instead of H.
	for _, ep := range exitB.Phis() {
		v := ep.Ops[0]
		vp, _ := v.(*ir.Instr)
		if i := slices.Index(phis, vp); i >= 0 {
			ep.Ops = []ir.Value{r.init[i], r.next[i]}
			ep.Blocks = []*ir.Block{P, L}
		} else {
			ep.Ops = []ir.Value{v, v}
			ep.Blocks = []*ir.Block{P, L}
		}
	}

	// Outside uses of phis go through fresh exit phis (H is in l.Blocks and
	// about to be deleted, so header-internal uses are ignored).
	outsideLoop := func(x ir.Use) bool { return !l.Contains(x.User.Parent()) }
	for i, p := range phis {
		outside := fu.collect(p, outsideLoop)
		if len(outside) == 0 {
			continue
		}
		ephi := &ir.Instr{Op: ir.OpPhi, Ty: p.Ty}
		ir.AddIncoming(ephi, r.init[i], P)
		ir.AddIncoming(ephi, r.next[i], L)
		exitB.InsertBefore(0, ephi)
		fu.inserted(ephi)
		fu.setAll(outside, ephi)
	}

	// Delete the header block.
	for i, b := range f.Blocks {
		if b == H {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			break
		}
	}
	fu.drop()
	return true
}

// hoistInvariants implements LICM over every loop with a preheader.
func hoistInvariants(m *ir.Module, f *ir.Function) (int, int) {
	nPure, nLoad := 0, 0
	cfg, dt, li := ir.LoopsOf(f)
	for _, l := range li.Loops {
		if l.Preheader == nil || l.Latch == nil {
			continue
		}
		phTerm := func() int { return len(l.Preheader.Instrs) - 1 }
		invariant := func(v ir.Value) bool { return ir.IsLoopInvariant(l, v) }
		// Precompute store/call hazards once per loop.
		var loopStores []*ir.Instr
		hasUnknownCall := false
		for _, b := range l.Blocks() {
			for _, in := range b.Instrs {
				if in.Op == ir.OpStore {
					loopStores = append(loopStores, in)
				}
				if in.Op == ir.OpCall {
					if ir.IsBuiltin(in.Callee) {
						if ir.BuiltinHasSideEffects(in.Callee) {
							hasUnknownCall = true
						}
					} else if callee := m.Func(in.Callee); callee == nil ||
						(!callee.HasAttr(ir.AttrReadNone) && !callee.HasAttr(ir.AttrReadOnly)) {
						hasUnknownCall = true
					}
				}
			}
		}
		for pass := 0; pass < 8; pass++ {
			moved := 0
			// Deterministic block order.
			for _, b := range f.Blocks {
				if !l.Contains(b) {
					continue
				}
				for i := 0; i < len(b.Instrs); i++ {
					in := b.Instrs[i]
					if in.Op == ir.OpPhi || in.IsTerminator() {
						continue
					}
					opsInv := true
					for _, op := range in.Ops {
						if !invariant(op) {
							opsInv = false
							break
						}
					}
					if !opsInv {
						continue
					}
					switch {
					case isPure(m, in) && !mayTrap(in):
						b.RemoveAt(i)
						l.Preheader.InsertBefore(phTerm(), in)
						i--
						moved++
						nPure++
					case in.Op == ir.OpSDiv || in.Op == ir.OpUDiv || in.Op == ir.OpSRem:
						if c, ok := constOp(in, 1); ok && !c.IsZero() {
							b.RemoveAt(i)
							l.Preheader.InsertBefore(phTerm(), in)
							i--
							moved++
							nPure++
						}
					case in.Op == ir.OpLoad:
						if hasUnknownCall || !dt.Dominates(b, l.Latch) {
							continue
						}
						aliased := false
						for _, s := range loopStores {
							if mayAlias(s.Ops[1], in.Ops[0]) {
								aliased = true
								break
							}
						}
						if aliased {
							continue
						}
						b.RemoveAt(i)
						l.Preheader.InsertBefore(phTerm(), in)
						i--
						moved++
						nLoad++
					}
				}
			}
			if moved == 0 {
				break
			}
		}
	}
	_ = cfg
	return nPure, nLoad
}

// deleteDeadLoops removes loops whose execution is unobservable.
func deleteDeadLoops(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l := range li.Loops {
			if l.Preheader == nil || loopHasMemoryEffects(m, l) {
				continue
			}
			// No builtin output calls, no calls at all for simplicity.
			hasCall := false
			for _, b := range l.Blocks() {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall {
						hasCall = true
					}
				}
			}
			if hasCall {
				continue
			}
			// Single exit block; no loop value used outside.
			exitTargets := map[*ir.Block]bool{}
			for _, e := range l.Exits {
				for _, s := range cfg.Succs(e) {
					if !l.Contains(s) {
						exitTargets[s] = true
					}
				}
			}
			if len(exitTargets) != 1 {
				continue
			}
			var exitB *ir.Block
			for e := range exitTargets {
				exitB = e
			}
			if exitB.NumPhis() > 0 {
				continue
			}
			if loopValueUsedOutside(fu.get(), l) {
				continue
			}
			// Termination: require a canonical IV (proxy for provable
			// finiteness, as LLVM requires mustprogress).
			iv := ir.FindCanonicalIV(cfg, l)
			if iv == nil || iv.Cmp == nil {
				continue
			}
			// Rewire preheader directly to the exit and drop the loop blocks.
			pt := l.Preheader.Term()
			pt.Op = ir.OpJmp
			pt.Ops = nil
			pt.Cases = nil
			pt.Blocks = []*ir.Block{exitB}
			kept := f.Blocks[:0]
			for _, b := range f.Blocks {
				if !l.Contains(b) {
					kept = append(kept, b)
				}
			}
			f.Blocks = kept
			fu.drop()
			n++
			changed = true
			break
		}
	}
	return n
}

// loopValueUsedOutside reports whether a value defined in l is used by an
// instruction outside it.
func loopValueUsedOutside(u *ir.Uses, l *ir.Loop) bool {
	for _, b := range l.Blocks() {
		for _, in := range b.Instrs {
			if in.Ty != ir.VoidT && valueUsedOutsideLoop(u, l, in) {
				return true
			}
		}
	}
	return false
}

// recognizeIdioms rewrites single-block memset and memcpy loops into builtin
// calls.
func recognizeIdioms(m *ir.Module, f *ir.Function) (int, int) {
	ms, mc := 0, 0
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
			if iv == nil || iv.Step != 1 || iv.Cmp == nil {
				continue
			}
			// Loop values must not escape.
			if loopValueUsedOutside(fu.get(), l) {
				continue
			}
			exitB := exitTargetOf(cfg, l, b)
			if exitB == nil || exitB.NumPhis() > 0 {
				continue
			}
			// Classify body: allow {phi(iv), gep(s), loads, store, ivnext,
			// cmp, br} shapes only.
			var stores []*ir.Instr
			var loads []*ir.Instr
			okShape := true
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpPhi, ir.OpGEP, ir.OpAdd, ir.OpICmp, ir.OpBr:
				case ir.OpStore:
					stores = append(stores, in)
				case ir.OpLoad:
					loads = append(loads, in)
				default:
					okShape = false
				}
			}
			if !okShape || len(stores) != 1 {
				continue
			}
			st0 := stores[0]
			dstGep, okD := st0.Ops[1].(*ir.Instr)
			if !okD || dstGep.Op != ir.OpGEP || dstGep.Ops[1] != iv.Phi ||
				!ir.IsLoopInvariant(l, dstGep.Ops[0]) {
				continue
			}
			if st0.Ops[0].Type().IsVector() {
				continue
			}
			// Length = bound - init, computed in the preheader.
			lenV := loopLengthValue(&fu, l.Preheader, iv)
			if lenV == nil {
				continue
			}
			basePtr := dstGep.Ops[0]
			startPtr := gepAt(&fu, l.Preheader, basePtr, iv.Init)
			pt := l.Preheader.Term()
			switch {
			case len(loads) == 0:
				// memset: stored value must be an invariant integer.
				c, isC := st0.Ops[0].(*ir.Const)
				if !isC || st0.Ops[0].Type().Kind.IsFloat() {
					continue
				}
				call := &ir.Instr{Op: ir.OpCall, Ty: ir.VoidT, Callee: "sim.memset",
					Ops: []ir.Value{startPtr, ir.ConstInt(ir.I64T, c.I), lenV}}
				l.Preheader.InsertBefore(l.Preheader.IndexOf(pt), call)
				fu.inserted(call)
				ms++
			case len(loads) == 1:
				ld := loads[0]
				srcGep, okS := ld.Ops[0].(*ir.Instr)
				if !okS || srcGep.Op != ir.OpGEP || srcGep.Ops[1] != iv.Phi ||
					!ir.IsLoopInvariant(l, srcGep.Ops[0]) || st0.Ops[0] != ld {
					continue
				}
				// No overlap: distinct identified base objects.
				bs, bd := baseObject(srcGep.Ops[0]), baseObject(dstGep.Ops[0])
				if bs == nil || bd == nil || bs == bd {
					continue
				}
				srcPtr := gepAt(&fu, l.Preheader, srcGep.Ops[0], iv.Init)
				call := &ir.Instr{Op: ir.OpCall, Ty: ir.VoidT, Callee: "sim.memcpy",
					Ops: []ir.Value{startPtr, srcPtr, lenV}}
				l.Preheader.InsertBefore(l.Preheader.IndexOf(pt), call)
				fu.inserted(call)
				mc++
			default:
				continue
			}
			// Delete the loop: preheader branches straight to the exit.
			pt.Op = ir.OpJmp
			pt.Ops = nil
			pt.Blocks = []*ir.Block{exitB}
			kept := f.Blocks[:0]
			for _, blk := range f.Blocks {
				if blk != b {
					kept = append(kept, blk)
				}
			}
			f.Blocks = kept
			fu.drop()
			changed = true
			break
		}
	}
	return ms, mc
}

// exitTargetOf returns the single out-of-loop successor of b, or nil.
func exitTargetOf(cfg *ir.CFG, l *ir.Loop, b *ir.Block) *ir.Block {
	var exit *ir.Block
	for _, s := range cfg.Succs(b) {
		if !l.Contains(s) {
			if exit != nil {
				return nil
			}
			exit = s
		}
	}
	return exit
}

// loopLengthValue materialises (bound - init) in the preheader for a
// step-one IV with an slt/ne exit test; nil if the shape is unsupported.
func loopLengthValue(fu *funcUses, ph *ir.Block, iv *ir.CanonicalIV) ir.Value {
	if iv.Cmp == nil || iv.Bound == nil {
		return nil
	}
	if iv.Cmp.Pred != ir.CmpSLT && iv.Cmp.Pred != ir.CmpNE {
		return nil
	}
	initC, okI := iv.Init.(*ir.Const)
	boundC, okB := iv.Bound.(*ir.Const)
	if okI && okB {
		if boundC.I <= initC.I {
			return nil
		}
		return ir.ConstInt(ir.I64T, boundC.I-initC.I)
	}
	sub := &ir.Instr{Op: ir.OpSub, Ty: ir.I64T, Ops: []ir.Value{iv.Bound, iv.Init}}
	ph.InsertBefore(len(ph.Instrs)-1, sub)
	fu.inserted(sub)
	return sub
}

// gepAt materialises base+idx in the preheader (or returns base for idx 0).
func gepAt(fu *funcUses, ph *ir.Block, base, idx ir.Value) ir.Value {
	if c, ok := idx.(*ir.Const); ok && c.IsZero() {
		return base
	}
	g := &ir.Instr{Op: ir.OpGEP, Ty: ir.PtrT, Ops: []ir.Value{base, idx}}
	ph.InsertBefore(len(ph.Instrs)-1, g)
	fu.inserted(g)
	return g
}

// canonicalizeIVs rewrites loop exit tests to the canonical `slt` form and
// marks IV increments no-wrap.
func canonicalizeIVs(f *ir.Function) int {
	n := 0
	cfg, _, li := ir.LoopsOf(f)
	for _, l := range li.Loops {
		iv := ir.FindCanonicalIV(cfg, l)
		if iv == nil {
			continue
		}
		if iv.Next.Flags&ir.FlagNoWrap == 0 {
			iv.Next.Flags |= ir.FlagNoWrap
		}
		if iv.Cmp == nil || iv.Step != 1 {
			continue
		}
		// Normalise the predicate so the IV is on the left.
		cmp := iv.Cmp
		pred := cmp.Pred
		ivLeft := cmp.Ops[0] == iv.Phi || cmp.Ops[0] == iv.Next
		if !ivLeft {
			cmp.Ops[0], cmp.Ops[1] = cmp.Ops[1], cmp.Ops[0]
			pred = pred.Swapped()
			cmp.Pred = pred
			n++
		}
		switch pred {
		case ir.CmpNE:
			// For a positive-step IV counting to the bound, ne == slt.
			cmp.Pred = ir.CmpSLT
			n++
		case ir.CmpSLE:
			if c, ok := cmp.Ops[1].(*ir.Const); ok {
				cmp.Pred = ir.CmpSLT
				cmp.Ops[1] = ir.ConstInt(c.Ty, c.I+1)
				n++
			}
		}
	}
	return n
}

// unswitchLoops clones loops containing an invariant internal branch so each
// version runs branch-free.
func unswitchLoops(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l := range li.Loops {
			if l.Preheader == nil || len(l.Blocks()) > 12 {
				continue
			}
			// Find an in-loop conditional branch on an invariant condition
			// whose both targets are in the loop.
			var sw *ir.Instr
			for _, b := range f.Blocks {
				if !l.Contains(b) {
					continue
				}
				t := b.Term()
				if t == nil || t.Op != ir.OpBr {
					continue
				}
				if !ir.IsLoopInvariant(l, t.Ops[0]) {
					continue
				}
				if l.Contains(t.Blocks[0]) && l.Contains(t.Blocks[1]) && t.Blocks[0] != t.Blocks[1] {
					sw = t
					break
				}
			}
			if sw == nil {
				continue
			}
			// No loop value may be used outside; exits must have no phis.
			bad := loopValueUsedOutside(fu.get(), l)
			for _, e := range l.Exits {
				for _, s := range cfg.Succs(e) {
					if !l.Contains(s) && s.NumPhis() > 0 {
						bad = true
					}
				}
			}
			if bad {
				continue
			}
			// Clone the loop body; original takes the true path, the clone
			// takes the false path, and the preheader branches on the
			// invariant condition.
			cond := sw.Ops[0]
			sub := newValueSub(f)
			clones := cloneLoop(f, l.Blocks(), &sub)
			csw := sub.get(sw).(*ir.Instr)
			sub.release()
			trueTarget := sw.Blocks[0]
			sw.Op = ir.OpJmp
			sw.Ops = nil
			sw.Blocks = []*ir.Block{trueTarget}
			falseTarget := csw.Blocks[1]
			csw.Op = ir.OpJmp
			csw.Ops = nil
			csw.Blocks = []*ir.Block{falseTarget}
			pt := l.Preheader.Term()
			pt.Op = ir.OpBr
			pt.Ops = []ir.Value{cond}
			pt.Blocks = []*ir.Block{l.Header, clones[slices.Index(l.Blocks(), l.Header)]}
			fu.drop()
			n++
			changed = true
			break
		}
	}
	return n
}

// cloneLoop copies the blocks of a loop of f (orig, in block order) to the
// end of f, returning the copies in the same order: operands defined in the
// loop and branch targets in it go to their copies, every other value and
// block is shared. sub, one round over f, maps each instruction to its copy.
func cloneLoop(f *ir.Function, orig []*ir.Block, sub *valueSub) []*ir.Block {
	clones := make([]*ir.Block, len(orig))
	for i, b := range orig {
		clones[i] = &ir.Block{Name: b.Name + "_us"}
		ir.AttachBlock(clones[i], f)
	}
	bm := blockMap{from: orig, to: clones}
	for i, b := range orig {
		slab := slabFor(1, b.Instrs, nil)
		for _, in := range b.Instrs {
			c := cloneInstr(in, sub, bm, &slab)
			clones[i].Append(c)
			sub.set(in, c)
		}
	}
	// An operand may come later in block order (a phi's latch value): now
	// that every copy exists, substitute again.
	for i, b := range orig {
		for k, in := range b.Instrs {
			sub.apply(clones[i].Instrs[k].Ops, in.Ops)
		}
	}
	f.Blocks = append(f.Blocks, clones...)
	return clones
}

// strengthReduceIVs replaces mul(iv, c) inside single-block loops with an
// incrementing accumulator phi.
func strengthReduceIVs(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	cfg, _, li := ir.LoopsOf(f)
	for _, l := range li.Loops {
		if l.Preheader == nil || l.Header != l.Latch || len(l.Blocks()) != 1 {
			continue
		}
		b := l.Header
		iv := ir.FindCanonicalIV(cfg, l)
		if iv == nil {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != ir.OpMul || in.Ty.IsVector() {
				continue
			}
			var c *ir.Const
			if in.Ops[0] == iv.Phi {
				c, _ = in.ConstOperand(1)
			} else if in.Ops[1] == iv.Phi {
				c, _ = in.ConstOperand(0)
			}
			if c == nil || c.I == 0 {
				continue
			}
			// q = phi [init*c, P], [q + step*c, B]; replace mul with q.
			var initV ir.Value
			if ic, ok := iv.Init.(*ir.Const); ok {
				initV = ir.ConstInt(in.Ty, ic.I*c.I)
			} else {
				mi := &ir.Instr{Op: ir.OpMul, Ty: in.Ty, Ops: []ir.Value{iv.Init, c}}
				l.Preheader.InsertBefore(len(l.Preheader.Instrs)-1, mi)
				fu.inserted(mi)
				initV = mi
			}
			q := &ir.Instr{Op: ir.OpPhi, Ty: in.Ty}
			b.InsertBefore(0, q)
			qn := &ir.Instr{Op: ir.OpAdd, Ty: in.Ty,
				Ops: []ir.Value{q, ir.ConstInt(in.Ty, iv.Step*c.I)}}
			b.InsertBefore(len(b.Instrs)-1, qn)
			fu.inserted(qn)
			for _, fb := range cfg.Preds(b) {
				if l.Contains(fb) {
					ir.AddIncoming(q, qn, fb)
				} else {
					ir.AddIncoming(q, initV, fb)
				}
			}
			fu.inserted(q) // with its incomings in place
			replaceNow(&fu, in, q)
			n++
			break // one per loop per run; IV info now stale
		}
	}
	return n
}

// sinkIntoLoops moves pure preheader computations used only inside the loop
// into the loop header (the deoptimising inverse of LICM, mirroring LLVM's
// loop-sink for cold loops).
func sinkIntoLoops(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	_, _, li := ir.LoopsOf(f)
	for _, l := range li.Loops {
		if l.Preheader == nil {
			continue
		}
		ph := l.Preheader
		for i := len(ph.Instrs) - 2; i >= 0; i-- {
			in := ph.Instrs[i]
			if in.Op == ir.OpPhi || !isPure(m, in) || mayTrap(in) {
				continue
			}
			uses := fu.get().Of(in)
			onlyInLoop := len(uses) > 0
			for _, x := range uses {
				// A phi use lives on its incoming edge.
				useBlock := x.User.Parent()
				if x.User.Op == ir.OpPhi {
					useBlock = x.User.Blocks[x.Slot]
				}
				if !l.Contains(useBlock) {
					onlyInLoop = false
					break
				}
			}
			if !onlyInLoop {
				continue
			}
			// Moving in leaves the index coherent, and puts in's own operand
			// uses in the loop for the instructions still to be visited.
			ph.RemoveAt(i)
			l.Header.InsertBefore(l.Header.NumPhis(), in)
			n++
		}
	}
	return n
}

// insertPrefetches adds software prefetch calls for stride-one loads in
// single-block loops.
func insertPrefetches(f *ir.Function) int {
	n := 0
	cfg, _, li := ir.LoopsOf(f)
	for _, l := range li.Loops {
		if l.Header != l.Latch || len(l.Blocks()) != 1 {
			continue
		}
		b := l.Header
		iv := ir.FindCanonicalIV(cfg, l)
		if iv == nil || iv.Step != 1 {
			continue
		}
		seen := map[ir.Value]bool{}
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpLoad {
				continue
			}
			g, ok := in.Ops[0].(*ir.Instr)
			if !ok || g.Op != ir.OpGEP || g.Ops[1] != iv.Phi ||
				!ir.IsLoopInvariant(l, g.Ops[0]) || seen[g.Ops[0]] {
				continue
			}
			seen[g.Ops[0]] = true
			const distance = 16
			ahead := &ir.Instr{Op: ir.OpAdd, Ty: iv.Phi.Ty,
				Ops: []ir.Value{iv.Phi, ir.ConstInt(iv.Phi.Ty, distance)}}
			pfg := &ir.Instr{Op: ir.OpGEP, Ty: ir.PtrT, Ops: []ir.Value{g.Ops[0], ahead}}
			call := &ir.Instr{Op: ir.OpCall, Ty: ir.VoidT, Callee: "sim.prefetch",
				Ops: []ir.Value{pfg}}
			pos := b.IndexOf(in)
			b.InsertBefore(pos, ahead)
			b.InsertBefore(pos+1, pfg)
			b.InsertBefore(pos+2, call)
			i = pos + 3
			n++
		}
	}
	return n
}

// fuseLoops merges two adjacent rotated single-block loops with identical
// constant trip counts.
func fuseLoops(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l1 := range li.Loops {
			if fuseWithNext(m, f, cfg, li, l1, &fu) {
				n++
				changed = true
				break
			}
		}
	}
	return n
}

// fuseWithNext leaves fu coherent when it declines and without an index when
// it fuses.
func fuseWithNext(m *ir.Module, f *ir.Function, cfg *ir.CFG, li *ir.LoopInfo, l1 *ir.Loop, fu *funcUses) bool {
	if l1.Header != l1.Latch || len(l1.Blocks()) != 1 {
		return false
	}
	b1 := l1.Header
	exit1 := exitTargetOf(cfg, l1, b1)
	if exit1 == nil {
		return false
	}
	// exit1 must lead into a second single-block loop: either it is the
	// loop's preheader directly, or it is the guard whose dedicated
	// preheader (inserted by rotation) has exit1 as its only predecessor.
	var l2 *ir.Loop
	for _, l := range li.Loops {
		if l == l1 || l.Header != l.Latch || len(l.Blocks()) != 1 || l.Preheader == nil {
			continue
		}
		if l.Preheader == exit1 {
			l2 = l
			break
		}
		preds := cfg.Preds(l.Preheader)
		if len(preds) == 1 && preds[0] == exit1 {
			l2 = l
			break
		}
	}
	if l2 == nil {
		return false
	}
	b2 := l2.Header
	iv1 := ir.FindCanonicalIV(cfg, l1)
	iv2 := ir.FindCanonicalIV(cfg, l2)
	if iv1 == nil || iv2 == nil || iv1.Step != 1 || iv2.Step != 1 {
		return false
	}
	t1, t2 := iv1.TripCount(), iv2.TripCount()
	if t1 <= 0 || t1 != t2 {
		return false
	}
	i1, ok1 := iv1.Init.(*ir.Const)
	i2, ok2 := iv2.Init.(*ir.Const)
	if !ok1 || !ok2 || i1.I != i2.I {
		return false
	}
	// Memory independence: l1's stores must not alias l2's loads/stores.
	var stores1 []*ir.Instr
	for _, in := range b1.Instrs {
		if in.Op == ir.OpStore {
			stores1 = append(stores1, in)
		}
		if in.Op == ir.OpCall {
			return false
		}
	}
	for _, in := range b2.Instrs {
		if in.Op == ir.OpCall {
			return false
		}
		var p ir.Value
		if in.Op == ir.OpLoad {
			p = in.Ops[0]
		} else if in.Op == ir.OpStore {
			p = in.Ops[1]
		} else {
			continue
		}
		for _, s := range stores1 {
			if mayAlias(s.Ops[1], p) {
				return false
			}
		}
	}
	// l2's phi inits must be constants (available before loop 1), and values
	// defined in b2 must not be used outside b2 (no-LCSSA escape hazard).
	for _, phi := range b2.Phis() {
		for i, fb := range phi.Blocks {
			if !l2.Contains(fb) {
				if _, isC := phi.Ops[i].(*ir.Const); !isC {
					return false
				}
			}
		}
	}
	if loopValueUsedOutside(fu.get(), l2) {
		return false
	}
	exit2 := exitTargetOf(cfg, l2, b2)
	if exit2 == nil || exit2.NumPhis() > 0 {
		return false
	}

	// Move b2's phis into b1 (incoming: const init from b1's out-of-loop
	// pred(s); latch value from b1).
	fu.drop() // the rewrite below goes behind the index's back
	sub := newValueSub(f)
	defer sub.release()
	sub.set(iv2.Phi, iv1.Phi)
	var outsidePreds1 []*ir.Block
	for _, p := range cfg.Preds(b1) {
		if !l1.Contains(p) {
			outsidePreds1 = append(outsidePreds1, p)
		}
	}
	for _, phi := range b2.Phis() {
		if phi == iv2.Phi {
			continue
		}
		np := &ir.Instr{Op: ir.OpPhi, Ty: phi.Ty}
		var initC ir.Value
		var latchV ir.Value
		for i, fb := range phi.Blocks {
			if l2.Contains(fb) {
				latchV = phi.Ops[i]
			} else {
				initC = phi.Ops[i]
			}
		}
		for _, p := range outsidePreds1 {
			ir.AddIncoming(np, initC, p)
		}
		ir.AddIncoming(np, latchV, b1) // latchV remapped after instr move
		b1.InsertBefore(0, np)
		sub.set(phi, np)
	}
	// Copy b2's non-phi, non-control instructions into b1 before its
	// terminator region (before iv1.Next's cmp/br: insert before terminator).
	// Copies, not moves: a moved instruction would keep its ID from b2.
	copied := func(in *ir.Instr) bool {
		return in.Op != ir.OpPhi && in.Op != ir.OpBr && in.Op != ir.OpJmp && in != iv2.Next && in != iv2.Cmp
	}
	slab := slabFor(1, b2.Instrs, copied)
	insertAt := len(b1.Instrs) - 1
	for _, in := range b2.Instrs {
		if !copied(in) {
			continue
		}
		c := cloneInstr(in, &sub, blockMap{}, &slab)
		b1.InsertBefore(insertAt, c)
		insertAt++
		sub.set(in, c)
	}
	// Fix moved-phi latch incomings through the substitution.
	for _, phi := range b1.Phis() {
		for i := range phi.Ops {
			phi.Ops[i] = sub.get(phi.Ops[i])
		}
	}
	// Bypass loop 2: the block that entered b2 now goes straight to exit2,
	// and the b2 block disappears.
	gt := l2.Preheader.Term()
	if gt.Op == ir.OpBr {
		for i, tb := range gt.Blocks {
			if tb == b2 {
				gt.Blocks[i] = exit2
			}
		}
		if gt.Blocks[0] == gt.Blocks[1] {
			gt.Op = ir.OpJmp
			gt.Ops = nil
			gt.Blocks = gt.Blocks[:1]
		}
	} else {
		gt.Blocks = []*ir.Block{exit2}
	}
	kept := f.Blocks[:0]
	for _, blk := range f.Blocks {
		if blk != b2 {
			kept = append(kept, blk)
		}
	}
	f.Blocks = kept
	return true
}
