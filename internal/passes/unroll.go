package passes

import (
	"slices"

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
				if partiallyUnroll(f, l, iv, factor, &fu) {
					partial++
					changed = true
					break
				}
			}
		}
	}
	return full, partial
}

// unrollBody logs n copies of b's body — every instruction but its phis, its
// terminator and skip — into dst before its entry at position at. Copy k
// substitutes for each phi of b its value entering copy k (cur, which each
// copy advances along the phis' latch values nextOf) and for each body
// instruction its copy in copy k; sub keeps the last copy's substitution.
func unrollBody(dst *ir.Block, at int, b *ir.Block, skip *ir.Instr, phis []*ir.Instr, cur, nextOf []ir.Value, n int, sub *valueSub) {
	copied := func(in *ir.Instr) bool { return in.Op != ir.OpPhi && !in.IsTerminator() && in != skip }
	slab := slabFor(n, b.Instrs, copied)
	for k := 0; k < n; k++ {
		sub.next()
		for pi, p := range phis {
			sub.set(p, cur[pi])
		}
		for _, in := range b.Instrs {
			if copied(in) {
				c := cloneInstr(in, sub, blockMap{}, &slab)
				dst.Insert(at, c)
				sub.set(in, c)
			}
		}
		for pi := range phis {
			cur[pi] = sub.get(nextOf[pi])
		}
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
	sub := newValueSub(f)
	defer sub.release()
	cur := initOf // the phis' values entering the iteration
	unrollBody(nb, 0, b, iv.Cmp, phis, cur, nextOf, int(trip), &sub)
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
func partiallyUnroll(f *ir.Function, l *ir.Loop, iv *ir.CanonicalIV, factor int, fu *funcUses) bool {
	b := l.Header
	t := b.Term()
	if t.Op != ir.OpBr {
		return false // not rotated: top-test single block loop has br too; require bottom test via cmp in same block
	}
	phis := b.Phis()
	nextOf := make([]ir.Value, len(phis))
	for pi, p := range phis {
		for i, fb := range p.Blocks {
			if l.Contains(fb) {
				nextOf[pi] = p.Ops[i]
			}
		}
		if nextOf[pi] == nil {
			return false
		}
	}
	fu.drop() // the copying below goes behind the index's back
	sub := newValueSub(f)
	defer sub.release()
	// factor-1 copies of the body (all but the compare) before the
	// terminator; the first enters with the phis' latch values.
	cur := slices.Clone(nextOf)
	unrollBody(b, b.IndexOf(t), b, iv.Cmp, phis, cur, nextOf, factor-1, &sub)
	b.Flush()
	// Phi latch incomings now take the final copies' values.
	var ivCur ir.Value
	for pi, p := range phis {
		for i, fb := range p.Blocks {
			if l.Contains(fb) {
				p.Ops[i] = cur[pi]
			}
		}
		if p == iv.Phi {
			ivCur = cur[pi]
		}
	}
	// The compare must test the final IV value.
	for oi, op := range iv.Cmp.Ops {
		if op == iv.Next {
			iv.Cmp.Ops[oi] = ivCur
		} else if op == iv.Phi {
			// Pre-increment compare: test the value entering the next
			// iteration, i.e. the final copy's phi substitute.
			iv.Cmp.Ops[oi] = ivCur
		}
	}
	// Move the cmp to just before the terminator (operands may be defined by
	// late copies).
	if idx := b.IndexOf(iv.Cmp); idx >= 0 {
		b.RemoveAt(idx)
		b.InsertBefore(b.IndexOf(t), iv.Cmp)
	}
	// Uses outside the loop of original body values refer to the last
	// iteration executed: remap to final copies.
	outsideB := func(x ir.Use) bool { return x.User.Parent() != b }
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi || in.IsTerminator() {
			continue
		}
		if nv, ok := sub.lookup(in); ok {
			fu.setAll(fu.collect(in, outsideB), nv)
		}
	}
	return true
}
