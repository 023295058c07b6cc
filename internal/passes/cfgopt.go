package passes

import (
	"repro/internal/ir"
)

func init() {
	register("simplifycfg", "CFG cleanup: dead blocks, merges, if-conversion",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				n, sel := simplifyCFG(m, f)
				st.Add("simplifycfg.NumSimpl", n)
				st.Add("simplifycfg.NumSelects", sel)
			})
		})

	register("jump-threading", "thread branches over blocks with known outcome",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("jump-threading.NumThreads", threadJumps(f))
			})
		})

	register("correlated-propagation", "propagate branch-implied facts",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("correlated-propagation.NumPropagated", propagateBranchFacts(f, false))
			})
		})

	register("constraint-elimination", "remove comparisons implied by dominating branches",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("constraint-elimination.NumCondsRemoved", propagateBranchFacts(f, true))
			})
		})

	register("lower-switch", "lower switch terminators to branch chains",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("lower-switch.NumLowered", lowerSwitches(f))
			})
		})

	register("flattencfg", "merge nested conditions into logical ops",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("flattencfg.NumFlattened", flattenCFG(f))
			})
		})

	register("break-crit-edges", "split critical edges",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("break-crit-edges.NumBroken", breakCriticalEdges(f))
			})
		})

	register("mergereturn", "unify multiple returns into one exit block",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("mergereturn.NumMerged", mergeReturns(f))
			})
		})
}

// simplifyCFG iterates the classic clean-ups to fixpoint:
// unreachable-block removal, constant-branch folding, identical-target
// branches, jump chains, single-pred/single-succ merging, and conversion of
// small diamonds/triangles into selects.
func simplifyCFG(m *ir.Module, f *ir.Function) (int, int) {
	n, selects := 0, 0
	fu := funcUses{f: f}
	defer fu.done()
	for rounds := 0; rounds < 20; rounds++ {
		changed := 0

		// 1. Fold constant branches (sccp-style, repeated here as in LLVM).
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil {
				continue
			}
			if t.Op == ir.OpBr {
				if c, ok := t.Ops[0].(*ir.Const); ok {
					target, dead := t.Blocks[0], t.Blocks[1]
					if c.I == 0 {
						target, dead = dead, target
					}
					if dead != target {
						removePhiIncoming(dead, b)
					}
					t.Op = ir.OpJmp
					t.Ops = nil
					t.Blocks = []*ir.Block{target}
					changed++
				} else if t.Blocks[0] == t.Blocks[1] {
					removePhiIncomingOnce(t.Blocks[0], b)
					t.Op = ir.OpJmp
					t.Ops = nil
					t.Blocks = t.Blocks[:1]
					changed++
				}
			}
		}

		// 2. Remove unreachable blocks.
		cfg := ir.BuildCFG(f)
		if len(cfg.ReversePostOrder()) < len(f.Blocks) {
			reach := cfg.Reachable()
			for _, b := range f.Blocks {
				if reach.Has(b) {
					continue
				}
				for _, s := range cfg.Succs(b) {
					if reach.Has(s) {
						removePhiIncoming(s, b)
					}
				}
			}
			kept := f.Blocks[:0]
			for _, b := range f.Blocks {
				if reach.Has(b) {
					kept = append(kept, b)
				} else {
					changed++
				}
			}
			f.Blocks = kept
			cfg = ir.BuildCFG(f)
		}

		// 3. Skip empty forwarding blocks: a block containing only `jmp S`
		// can be bypassed by its predecessors when phi consistency allows.
		for _, b := range f.Blocks {
			if b == f.Entry() || len(b.Instrs) != 1 {
				continue
			}
			t := b.Term()
			if t == nil || t.Op != ir.OpJmp {
				continue
			}
			succ := t.Blocks[0]
			if succ == b {
				continue
			}
			preds := cfg.Preds(b)
			if len(preds) == 0 {
				continue
			}
			// Bail if succ has phis and any pred already flows into succ
			// (would create duplicate incoming with possibly different
			// values), or if b itself feeds phis (b has none: only a jmp).
			okRetarget := true
			if len(succ.Phis()) > 0 {
				for _, p := range preds {
					for _, s := range cfg.Succs(p) {
						if s == succ {
							okRetarget = false
						}
					}
				}
				if len(preds) > 1 {
					okRetarget = false // phi would need one entry per new pred
				}
			}
			if !okRetarget {
				continue
			}
			for _, p := range preds {
				pt := p.Term()
				for i, tb := range pt.Blocks {
					if tb == b {
						pt.Blocks[i] = succ
					}
				}
			}
			// Retarget succ's phi incomings from b to the (single) pred.
			for _, phi := range succ.Phis() {
				for i, fb := range phi.Blocks {
					if fb == b {
						phi.Blocks[i] = preds[0]
					}
				}
			}
			b.Instrs = nil
			b.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{b}}) // self loop; now unreachable
			changed++
			cfg = ir.BuildCFG(f)
		}

		// 4. Merge single-succ block into single-pred successor.
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpJmp {
				continue
			}
			succ := t.Blocks[0]
			if succ == b || succ == f.Entry() {
				continue
			}
			if len(cfg.Preds(succ)) != 1 {
				continue
			}
			// Fold succ's phis (single incoming).
			for _, phi := range succ.Phis() {
				replaceNow(&fu, phi, phi.Ops[0])
			}
			// Move succ's instructions into b, dropping b's jmp.
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			for _, in := range succ.Instrs {
				b.Append(in)
			}
			// Rewire: succ's successors' phis now come from b.
			for _, s := range cfg.Succs(succ) {
				for _, phi := range s.Phis() {
					for i, fb := range phi.Blocks {
						if fb == succ {
							phi.Blocks[i] = b
						}
					}
				}
			}
			succ.Instrs = nil
			succ.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{succ}})
			changed++
			cfg = ir.BuildCFG(f)
		}

		// 5. If-conversion: triangle/diamond with small pure arms -> select.
		conv, sel := ifConvert(m, f, cfg, &fu)
		selects += sel
		changed += conv
		// Steps 1-3 splice phi operands and delete blocks behind the index's
		// back; they never query it, so each round starts without one.
		fu.drop()

		n += changed
		if changed == 0 {
			break
		}
	}
	return n, selects
}

// removePhiIncomingOnce removes a single incoming from pred (used when a
// two-target branch to the same block collapses to one edge).
func removePhiIncomingOnce(b *ir.Block, pred *ir.Block) {
	for _, phi := range b.Phis() {
		for i := range phi.Blocks {
			if phi.Blocks[i] == pred {
				phi.Ops = append(phi.Ops[:i], phi.Ops[i+1:]...)
				phi.Blocks = append(phi.Blocks[:i], phi.Blocks[i+1:]...)
				break
			}
		}
	}
}

// ifConvert rewrites
//
//	br c, T, F;  T: jmp J;  F: jmp J;  J: x = phi [vt,T],[vf,F]
//
// (and the triangle variant) into a select when the arms are tiny and pure.
func ifConvert(m *ir.Module, f *ir.Function, cfg *ir.CFG, fu *funcUses) (int, int) {
	n := 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		tb, fb := t.Blocks[0], t.Blocks[1]
		if tb == fb {
			continue
		}
		join, vT, vF, ok := matchDiamond(cfg, b, tb, fb)
		if !ok {
			continue
		}
		// Arms must be pure, non-trapping and small.
		armOK := func(arm *ir.Block) bool {
			if arm == b || arm == join {
				return true
			}
			if len(arm.Instrs) > 4 || len(cfg.Preds(arm)) != 1 {
				return false
			}
			for _, x := range arm.Instrs {
				if x.IsTerminator() {
					continue
				}
				if x.Op == ir.OpPhi || !isPure(m, x) || mayTrap(x) {
					return false
				}
			}
			return true
		}
		if !armOK(tb) || !armOK(fb) {
			continue
		}
		// Hoist arm instructions into b, then convert join phis to selects.
		hoist := func(arm *ir.Block) {
			if arm == b || arm == join {
				return
			}
			insertAt := b.IndexOf(t)
			for len(arm.Instrs) > 1 {
				in := arm.Instrs[0]
				arm.RemoveAt(0)
				b.InsertBefore(insertAt, in)
				insertAt++
			}
		}
		hoist(tb)
		hoist(fb)
		cond := t.Ops[0]
		insertAt := b.IndexOf(t)
		for pi, phi := range join.Phis() {
			_ = pi
			sel := &ir.Instr{Op: ir.OpSelect, Ty: phi.Ty, Ops: []ir.Value{cond, vT[phi], vF[phi]}}
			b.InsertBefore(insertAt, sel)
			fu.inserted(sel)
			insertAt++
			replaceNow(fu, phi, sel)
			n++
		}
		// Branch becomes a direct jump to join.
		t.Op = ir.OpJmp
		fu.setOps(t, nil)
		t.Blocks = []*ir.Block{join}
		// Detach arms (now unreachable; removed next round).
		detach := func(arm *ir.Block) {
			if arm == b || arm == join {
				return
			}
			arm.Instrs = nil
			arm.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{arm}})
		}
		detach(tb)
		detach(fb)
		return 1, n // CFG changed; restart outer fixpoint loop
	}
	return 0, n
}

// matchDiamond recognises diamond (b->T->J, b->F->J) and triangle
// (b->T->J, b->J) shapes, returning the join block and per-phi values for
// the true/false paths.
func matchDiamond(cfg *ir.CFG, b, tb, fb *ir.Block) (*ir.Block, map[*ir.Instr]ir.Value, map[*ir.Instr]ir.Value, bool) {
	nextOf := func(x *ir.Block) *ir.Block {
		t := x.Term()
		if t == nil || t.Op != ir.OpJmp {
			return nil
		}
		return t.Blocks[0]
	}
	var join *ir.Block
	switch {
	case nextOf(tb) != nil && nextOf(tb) == nextOf(fb): // diamond
		join = nextOf(tb)
	case nextOf(tb) == fb: // triangle: true arm then join at fb
		join = fb
	case nextOf(fb) == tb: // triangle: false arm then join at tb
		join = tb
	default:
		return nil, nil, nil, false
	}
	if join == b || len(cfg.Preds(join)) != 2 {
		return nil, nil, nil, false
	}
	vT := make(map[*ir.Instr]ir.Value)
	vF := make(map[*ir.Instr]ir.Value)
	for _, phi := range join.Phis() {
		for i, from := range phi.Blocks {
			switch from {
			case tb:
				vT[phi] = phi.Ops[i]
			case fb:
				vF[phi] = phi.Ops[i]
			case b:
				// triangle: the edge directly from b carries the
				// "not-through-arm" value.
				if join == fb {
					vF[phi] = phi.Ops[i]
				} else {
					vT[phi] = phi.Ops[i]
				}
			default:
				return nil, nil, nil, false
			}
		}
		if vT[phi] == nil || vF[phi] == nil {
			return nil, nil, nil, false
		}
	}
	// Triangle: value select must not use values defined in the arm when the
	// arm is the join itself — handled since arms hoisted before conversion.
	return join, vT, vF, true
}

// threadJumps resolves branches over phi-of-constant blocks: when block B is
// {phi p = [c1,P1],[c2,P2]; br p, T, F} each predecessor can jump straight to
// its resolved target.
func threadJumps(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for _, b := range f.Blocks {
		if len(b.Instrs) != 2 {
			continue
		}
		phi, t := b.Instrs[0], b.Instrs[1]
		if phi.Op != ir.OpPhi || t.Op != ir.OpBr || t.Ops[0] != phi || phi.Ty != ir.I1T {
			continue
		}
		for i := 0; i < len(phi.Ops); i++ {
			c, ok := phi.Ops[i].(*ir.Const)
			if !ok {
				continue
			}
			pred := phi.Blocks[i]
			target := t.Blocks[1]
			if c.I != 0 {
				target = t.Blocks[0]
			}
			if len(target.Phis()) > 0 {
				continue // would need new phi entries; skip
			}
			pt := pred.Term()
			if pt == nil {
				continue
			}
			moved := false
			for bi, tb := range pt.Blocks {
				if tb == b {
					pt.Blocks[bi] = target
					moved = true
				}
			}
			if moved {
				phi.Ops = append(phi.Ops[:i], phi.Ops[i+1:]...)
				phi.Blocks = append(phi.Blocks[:i], phi.Blocks[i+1:]...)
				fu.drop() // operand slots shifted
				i--
				n++
			}
		}
		// If only one incoming remains the phi is trivial.
		if len(phi.Ops) == 1 {
			replaceNow(&fu, phi, phi.Ops[0])
		}
	}
	return n
}

// propagateBranchFacts replaces, in blocks reached only via a conditional
// edge, uses of the branch condition (condsOnly=false) or of identical
// comparisons (condsOnly=true) with the implied constant.
func propagateBranchFacts(f *ir.Function, condsOnly bool) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	cfg, dt := domOf(f)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		cond, okC := t.Ops[0].(*ir.Instr)
		if !okC {
			continue
		}
		for edge, target := range t.Blocks {
			if len(cfg.Preds(target)) != 1 || target == b {
				continue
			}
			implied := ir.ConstBool(edge == 0)
			// All blocks dominated by target inherit the fact.
			if !condsOnly {
				uses := fu.collect(cond, func(x ir.Use) bool {
					return x.User.Op != ir.OpBr && dt.Dominates(target, x.User.Parent())
				})
				fu.setAll(uses, implied)
				n += len(uses)
				continue
			}
			for _, d := range f.Blocks {
				if !dt.Dominates(target, d) {
					continue
				}
				for _, in := range d.Instrs {
					if in != cond && in.Op == cond.Op && sameComputation(in, cond) {
						// Flushed at once: the range reads d.Instrs as the
						// per-edit removal shifted it.
						replaceNow(&fu, in, implied)
						n++
					}
				}
			}
		}
	}
	return n
}

// lowerSwitches rewrites switch terminators into chains of compare+branch,
// retargeting exactly one phi incoming per rewritten edge.
func lowerSwitches(f *ir.Function) int {
	n := 0
	numBlocks := len(f.Blocks) // new chain blocks need no processing
	for bi := 0; bi < numBlocks; bi++ {
		b := f.Blocks[bi]
		t := b.Term()
		if t == nil || t.Op != ir.OpSwitch {
			continue
		}
		val := t.Ops[0]
		def := t.Blocks[0]
		cases := append([]int64(nil), t.Cases...)
		targets := append([]*ir.Block(nil), t.Blocks[1:]...)
		b.RemoveAt(len(b.Instrs) - 1)

		// retarget moves one phi incoming in `to` from b to `from`.
		retarget := func(to, from *ir.Block) {
			if from == b {
				return
			}
			for _, phi := range to.Phis() {
				for i, fb := range phi.Blocks {
					if fb == b {
						phi.Blocks[i] = from
						break
					}
				}
			}
		}

		cur := b
		for ci := range cases {
			cmp := &ir.Instr{Op: ir.OpICmp, Ty: ir.I1T, Pred: ir.CmpEQ,
				Ops: []ir.Value{val, ir.ConstInt(val.Type(), cases[ci])}}
			cur.Append(cmp)
			var next *ir.Block
			if ci == len(cases)-1 {
				next = def
			} else {
				next = &ir.Block{Name: b.Name + "_swt" + string(rune('a'+ci%26))}
				ir.AttachBlock(next, f)
				f.Blocks = append(f.Blocks, next)
			}
			cur.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.VoidT, Ops: []ir.Value{cmp},
				Blocks: []*ir.Block{targets[ci], next}})
			retarget(targets[ci], cur)
			if ci == len(cases)-1 {
				retarget(def, cur)
			}
			cur = next
		}
		if len(cases) == 0 {
			b.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{def}})
		}
		n++
	}
	return n
}

// flattenCFG merges nested short-circuit conditions:
//
//	b:  br c1, m, F     m: (empty) br c2, T, F
//
// becomes `x = and c1, c2; br x, T, F`.
func flattenCFG(f *ir.Function) int {
	n := 0
	cfg := ir.BuildCFG(f)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		mB := t.Blocks[0]
		fB := t.Blocks[1]
		if mB == b || len(cfg.Preds(mB)) != 1 || len(mB.Instrs) < 1 {
			continue
		}
		mt := mB.Term()
		if mt == nil || mt.Op != ir.OpBr {
			continue
		}
		// All instructions in m other than the terminator and the condition
		// must be pure and cheap, and the false edges must agree.
		if mt.Blocks[1] != fB || len(fB.Phis()) > 0 || len(mt.Blocks[0].Phis()) > 0 {
			continue
		}
		if len(mB.Instrs) > 3 {
			continue
		}
		okArm := true
		for _, in := range mB.Instrs {
			if in.IsTerminator() {
				continue
			}
			if in.Op == ir.OpPhi || !isPure(nil, in) || mayTrap(in) {
				okArm = false
				break
			}
		}
		if !okArm {
			continue
		}
		insertAt := b.IndexOf(t)
		for len(mB.Instrs) > 1 {
			in := mB.Instrs[0]
			mB.RemoveAt(0)
			b.InsertBefore(insertAt, in)
			insertAt++
		}
		andIn := &ir.Instr{Op: ir.OpAnd, Ty: ir.I1T, Ops: []ir.Value{t.Ops[0], mt.Ops[0]}}
		b.InsertBefore(b.IndexOf(t), andIn)
		t.Ops[0] = andIn
		t.Blocks[0] = mt.Blocks[0]
		mB.Instrs = nil
		mB.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{mB}})
		n++
		cfg = ir.BuildCFG(f)
	}
	return n
}

// breakCriticalEdges splits edges whose source has multiple successors and
// destination multiple predecessors by inserting a forwarding block.
func breakCriticalEdges(f *ir.Function) int {
	n := 0
	cfg := ir.BuildCFG(f)
	var newBlocks []*ir.Block
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || len(t.Blocks) < 2 {
			continue
		}
		for i, succ := range t.Blocks {
			if len(cfg.Preds(succ)) < 2 {
				continue
			}
			mid := &ir.Block{Name: b.Name + "_ce"}
			ir.AttachBlock(mid, f)
			mid.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{succ}})
			t.Blocks[i] = mid
			for _, phi := range succ.Phis() {
				for pi, fb := range phi.Blocks {
					if fb == b {
						phi.Blocks[pi] = mid
						break // one incoming per rewritten edge
					}
				}
			}
			newBlocks = append(newBlocks, mid)
			n++
		}
	}
	f.Blocks = append(f.Blocks, newBlocks...)
	return n
}

// mergeReturns rewrites functions with multiple ret instructions to a single
// exit block (with a phi for the return value).
func mergeReturns(f *ir.Function) int {
	var rets []*ir.Instr
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpRet {
			rets = append(rets, t)
		}
	}
	if len(rets) < 2 {
		return 0
	}
	exit := &ir.Block{Name: "unified_exit"}
	ir.AttachBlock(exit, f)
	var phi *ir.Instr
	hasVal := len(rets[0].Ops) > 0
	if hasVal {
		phi = &ir.Instr{Op: ir.OpPhi, Ty: rets[0].Ops[0].Type()}
		exit.Append(phi)
		exit.Append(&ir.Instr{Op: ir.OpRet, Ty: ir.VoidT, Ops: []ir.Value{phi}})
	} else {
		exit.Append(&ir.Instr{Op: ir.OpRet, Ty: ir.VoidT})
	}
	for _, r := range rets {
		b := r.Parent()
		if hasVal {
			ir.AddIncoming(phi, r.Ops[0], b)
		}
		r.Op = ir.OpJmp
		r.Ops = nil
		r.Blocks = []*ir.Block{exit}
	}
	f.Blocks = append(f.Blocks, exit)
	return 1
}
