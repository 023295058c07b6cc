package passes

import (
	"repro/internal/ir"
)

// The passes that copy IR, as they were when each copied instructions its
// own way: a field list per site and a map per substitution (loopSub), two
// maps per loop copy (cloneBlockSetFrozen), or an operand loop
// (splitCallSitesFrozen). frozenClonePasses maps each affected pass to that
// version of its body, and unrollLoopsPerEdit (peredit_test.go) partially
// unrolls through partiallyUnrollFrozen; TestCloneOracle and TestPerEditOracle
// hold the passes to them.

// loopSub is a value substitution map used when cloning header logic.
type loopSub map[ir.Value]ir.Value

func (s loopSub) get(v ir.Value) ir.Value {
	if nv, ok := s[v]; ok {
		return nv
	}
	return v
}

var frozenClonePasses = map[string]func(m *ir.Module, st Stats){
	"loop-rotate": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("loop-rotate.NumRotated", rotateLoopsFrozen(m, f))
		})
	},
	"simple-loop-unswitch": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("simple-loop-unswitch.NumUnswitched", unswitchLoopsFrozen(m, f))
		})
	},
	"loop-fusion": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("loop-fusion.NumFused", fuseLoopsFrozen(m, f))
		})
	},
	"callsite-splitting": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("callsite-splitting.NumSplit", splitCallSitesFrozen(m, f))
		})
	},
	"loop-unroll":      perEditPasses["loop-unroll"],
	"loop-unroll-full": perEditPasses["loop-unroll-full"],
}

// rotateLoopsFrozen converts top-test loops into guarded bottom-test loops (see
// package documentation for the exact shape requirements).
func rotateLoopsFrozen(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l := range li.Loops {
			if rotateOneFrozen(m, f, cfg, l, &fu) {
				n++
				changed = true
				break
			}
		}
	}
	return n
}

// rotateOneFrozen leaves fu coherent when it declines and without an index when it
// rotates.
func rotateOneFrozen(m *ir.Module, f *ir.Function, cfg *ir.CFG, l *ir.Loop, fu *funcUses) bool {
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
	// body; uses outside the loop block rotation.
	phis := H.Phis()
	var hwork []*ir.Instr
	usedInLoopBody := map[*ir.Instr]bool{}
	for _, in := range H.Instrs[len(phis):] {
		if in == ht {
			continue
		}
		if !(isPure(m, in) || in.Op == ir.OpLoad) || mayTrap(in) && in.Op != ir.OpLoad {
			return false
		}
		for _, x := range fu.get().Of(in) {
			ob := x.User.Parent()
			if ob == H {
				continue
			}
			if !l.Contains(ob) {
				return false
			}
			usedInLoopBody[in] = true
		}
		hwork = append(hwork, in)
	}
	// Record phi incomings.
	initOf := make(map[*ir.Instr]ir.Value)
	nextOf := make(map[*ir.Instr]ir.Value)
	for _, p := range phis {
		for i, fb := range p.Blocks {
			if fb == P {
				initOf[p] = p.Ops[i]
			} else if fb == L {
				nextOf[p] = p.Ops[i]
			} else {
				return false
			}
		}
		if initOf[p] == nil || nextOf[p] == nil {
			return false
		}
	}

	// Partition hwork: instructions feeding the phis' latch incomings (per-
	// iteration work that other passes may have hoisted into the header,
	// plus its in-header dependency closure) MOVE into the body; the rest —
	// the exit-condition chain — is cloned into the guard and the latch.
	hSet := make(map[*ir.Instr]bool, len(hwork))
	for _, in := range hwork {
		hSet[in] = true
	}
	moved := map[*ir.Instr]bool{}
	var markMoved func(v ir.Value)
	markMoved = func(v ir.Value) {
		in, ok := v.(*ir.Instr)
		if !ok || !hSet[in] || moved[in] {
			return
		}
		moved[in] = true
		for _, op := range in.Ops {
			markMoved(op)
		}
	}
	for _, p := range phis {
		markMoved(nextOf[p])
	}
	for in := range usedInLoopBody {
		markMoved(in)
	}
	// A moved load observes memory at body start, which matches its
	// original pre-body execution point — UNLESS the surviving condition
	// chain also reads it, in which case the latch clone would see a stale
	// value; bail in that combination.
	movedHasLoad := false
	for in := range moved {
		if in.Op == ir.OpLoad {
			movedHasLoad = true
		}
	}
	if movedHasLoad {
		for _, in := range hwork {
			if moved[in] {
				continue
			}
			for _, op := range in.Ops {
				if oi, ok := op.(*ir.Instr); ok && moved[oi] {
					return false
				}
			}
		}
	}

	cloneInto := func(dst *ir.Block, sub loopSub, all bool) ir.Value {
		insertAt := len(dst.Instrs) - 1 // before terminator
		for _, in := range hwork {
			if !all && moved[in] {
				continue // resolves to the moved body instruction
			}
			c := &ir.Instr{Op: in.Op, Ty: in.Ty, Pred: in.Pred, Callee: in.Callee, Flags: in.Flags}
			for _, op := range in.Ops {
				c.Ops = append(c.Ops, sub.get(op))
			}
			dst.InsertBefore(insertAt, c)
			insertAt++
			sub[in] = c
		}
		return sub.get(ht.Ops[0])
	}

	// Guard in the preheader: clone everything with init substitutions.
	fu.drop() // the rewrite below goes behind the index's back
	subInit := loopSub{}
	for _, p := range phis {
		subInit[p] = initOf[p]
	}
	condInit := cloneInto(P, subInit, true)
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
	for _, in := range hwork {
		if !moved[in] {
			continue
		}
		H.RemoveAt(H.IndexOf(in))
		body.InsertBefore(insertAt, in)
		insertAt++
	}

	// Bottom test in the latch: clone only the condition chain; references
	// to phis become their next values (often the moved body instructions).
	subNext := loopSub{}
	for _, p := range phis {
		subNext[p] = nextOf[p]
	}
	condNext := cloneInto(L, subNext, false)
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
		if vp, ok := v.(*ir.Instr); ok && vp.Op == ir.OpPhi && initOf[vp] != nil {
			ep.Ops = []ir.Value{initOf[vp], nextOf[vp]}
			ep.Blocks = []*ir.Block{P, L}
		} else {
			ep.Ops = []ir.Value{v, v}
			ep.Blocks = []*ir.Block{P, L}
		}
	}

	// Outside uses of phis go through fresh exit phis (H is in l.Blocks and
	// about to be deleted, so header-internal uses are ignored).
	outsideLoop := func(x ir.Use) bool { return !l.Contains(x.User.Parent()) }
	for _, p := range phis {
		outside := fu.collect(p, outsideLoop)
		if len(outside) == 0 {
			continue
		}
		ephi := &ir.Instr{Op: ir.OpPhi, Ty: p.Ty}
		ir.AddIncoming(ephi, initOf[p], P)
		ir.AddIncoming(ephi, nextOf[p], L)
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

// unswitchLoopsFrozen clones loops containing an invariant internal branch so each
// version runs branch-free.
func unswitchLoopsFrozen(m *ir.Module, f *ir.Function) int {
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
			_, cloneOf, blockOf := cloneBlockSetFrozen(f, l.Blocks())
			trueTarget := sw.Blocks[0]
			sw.Op = ir.OpJmp
			sw.Ops = nil
			sw.Blocks = []*ir.Block{trueTarget}
			csw := cloneOf[sw]
			falseTarget := csw.Blocks[1]
			csw.Op = ir.OpJmp
			csw.Ops = nil
			csw.Blocks = []*ir.Block{falseTarget}
			pt := l.Preheader.Term()
			pt.Op = ir.OpBr
			pt.Ops = []ir.Value{cond}
			pt.Blocks = []*ir.Block{l.Header, blockOf[l.Header]}
			fu.drop()
			n++
			changed = true
			break
		}
	}
	return n
}

// cloneBlockSetFrozen duplicates a set of blocks of f (orig, in block order) inside
// f, remapping intra-set operands and branch targets; values defined outside
// the set are shared.
func cloneBlockSetFrozen(f *ir.Function, orig []*ir.Block) ([]*ir.Block, map[*ir.Instr]*ir.Instr, map[*ir.Block]*ir.Block) {
	bmap := make(map[*ir.Block]*ir.Block)
	imap := make(map[*ir.Instr]*ir.Instr)
	var clones []*ir.Block
	for _, b := range orig {
		nb := &ir.Block{Name: b.Name + "_us"}
		ir.AttachBlock(nb, f)
		bmap[b] = nb
		clones = append(clones, nb)
	}
	for _, b := range orig {
		nb := bmap[b]
		for _, in := range b.Instrs {
			c := &ir.Instr{Op: in.Op, Ty: in.Ty, Pred: in.Pred, Callee: in.Callee,
				AllocTy: in.AllocTy, NAlloc: in.NAlloc, Flags: in.Flags}
			if in.Cases != nil {
				c.Cases = append([]int64(nil), in.Cases...)
			}
			imap[in] = c
			nb.Append(c)
		}
	}
	for _, b := range orig {
		for _, in := range b.Instrs {
			c := imap[in]
			for _, op := range in.Ops {
				if oi, ok := op.(*ir.Instr); ok {
					if coi, inSet := imap[oi]; inSet {
						c.Ops = append(c.Ops, coi)
						continue
					}
				}
				c.Ops = append(c.Ops, op)
			}
			for _, tb := range in.Blocks {
				if ntb, inSet := bmap[tb]; inSet {
					c.Blocks = append(c.Blocks, ntb)
				} else {
					c.Blocks = append(c.Blocks, tb)
				}
			}
		}
	}
	f.Blocks = append(f.Blocks, clones...)
	return clones, imap, bmap
}

// fuseLoopsFrozen merges two adjacent rotated single-block loops with identical
// constant trip counts.
func fuseLoopsFrozen(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l1 := range li.Loops {
			if fuseWithNextFrozen(m, f, cfg, li, l1, &fu) {
				n++
				changed = true
				break
			}
		}
	}
	return n
}

// fuseWithNextFrozen leaves fu coherent when it declines and without an index when
// it fuses.
func fuseWithNextFrozen(m *ir.Module, f *ir.Function, cfg *ir.CFG, li *ir.LoopInfo, l1 *ir.Loop, fu *funcUses) bool {
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
	sub := loopSub{iv2.Phi: iv1.Phi}
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
		sub[phi] = np
	}
	// Move b2's non-phi, non-control instructions into b1 before its
	// terminator region (before iv1.Next's cmp/br: insert before terminator).
	insertAt := len(b1.Instrs) - 1
	for _, in := range b2.Instrs {
		switch in.Op {
		case ir.OpPhi, ir.OpBr, ir.OpJmp:
			continue
		}
		if in == iv2.Next || in == iv2.Cmp {
			continue
		}
		c := &ir.Instr{Op: in.Op, Ty: in.Ty, Pred: in.Pred, Callee: in.Callee, Flags: in.Flags}
		for _, op := range in.Ops {
			c.Ops = append(c.Ops, sub.get(op))
		}
		b1.InsertBefore(insertAt, c)
		insertAt++
		sub[in] = c
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

// partiallyUnrollFrozen widens a rotated single-block loop body by `factor`,
// stepping the IV factor times per latch test. It leaves fu coherent.
func partiallyUnrollFrozen(cfg *ir.CFG, l *ir.Loop, iv *ir.CanonicalIV, factor int, fu *funcUses) bool {
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

// splitCallSitesFrozen duplicates a call whose argument is a phi into each
// predecessor with the argument resolved, enabling later specialisation.
func splitCallSitesFrozen(m *ir.Module, f *ir.Function) int {
	n := 0
	cfg := ir.CFGOf(f)
	// Shape: block = {phi, call using phi, jmp}, two preds, void call so no
	// merging phi for the result is needed.
	for _, b := range f.Blocks {
		if len(b.Instrs) != 3 {
			continue
		}
		phi, call, jmp := b.Instrs[0], b.Instrs[1], b.Instrs[2]
		if phi.Op != ir.OpPhi || call.Op != ir.OpCall || jmp.Op != ir.OpJmp {
			continue
		}
		if call.Ty != ir.VoidT || len(cfg.Preds(b)) != 2 || len(phi.Ops) != 2 {
			continue
		}
		uses := false
		for _, op := range call.Ops {
			if op == phi {
				uses = true
			}
		}
		if !uses {
			continue
		}
		// Clone the call into each predecessor with the resolved argument.
		for i, pred := range phi.Blocks {
			nc := &ir.Instr{Op: ir.OpCall, Ty: call.Ty, Callee: call.Callee}
			for _, op := range call.Ops {
				if op == phi {
					nc.Ops = append(nc.Ops, phi.Ops[i])
				} else {
					nc.Ops = append(nc.Ops, op)
				}
			}
			pred.InsertBefore(len(pred.Instrs)-1, nc)
		}
		b.RemoveAt(1) // original call
		n++
	}
	return n
}
