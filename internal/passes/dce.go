package passes

import (
	"repro/internal/ir"
)

func init() {
	register("dce", "iterative dead code elimination",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				n := removeDeadInstrs(m, f, true)
				n += removeDeadAllocas(f)
				st.Add("dce.NumRemoved", n)
			})
		})

	register("die", "single-pass dead instruction elimination",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("die.NumRemoved", removeDeadInstrs(m, f, false))
			})
		})

	register("adce", "aggressive liveness-based dead code elimination",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("adce.NumRemoved", aggressiveDCE(m, f))
			})
		})

	register("bdce", "bit-tracking dead code elimination",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				n := foldDeadBits(f)
				n += removeDeadInstrs(m, f, true)
				st.Add("bdce.NumRemoved", n)
			})
		})

	register("dse", "dead store elimination",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				n := deadStoreElim(m, f)
				n += removeDeadAllocas(f)
				st.Add("dse.NumFastStores", n)
			})
		})
}

// aggressiveDCE marks live roots (side-effecting and control instructions)
// and transitively their operands; everything else — including cyclic dead
// phi webs that plain DCE cannot remove — is deleted.
func aggressiveDCE(m *ir.Module, f *ir.Function) int {
	sc := getScratch()
	defer putScratch(sc)
	live := sc.iset
	work := sc.work
	defer func() { sc.work = work }() // hand grown capacity back to the pool
	markRoot := func(in *ir.Instr) {
		if !live[in] {
			live[in] = true
			work = append(work, in)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore, ir.OpRet, ir.OpBr, ir.OpJmp, ir.OpSwitch, ir.OpAlloca:
				markRoot(in)
			case ir.OpCall:
				effect := true
				if ir.IsBuiltin(in.Callee) {
					effect = !ir.BuiltinIsPure(in.Callee)
				} else if callee := m.Func(in.Callee); callee != nil && callee.HasAttr(ir.AttrReadNone) {
					effect = false
				}
				if effect {
					markRoot(in)
				}
			}
		}
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, op := range in.Ops {
			if d, ok := op.(*ir.Instr); ok && !live[d] {
				live[d] = true
				work = append(work, d)
			}
		}
	}
	removed := 0
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if live[in] {
				kept = append(kept, in)
			} else {
				removed++
			}
		}
		b.Instrs = kept
	}
	return removed
}

// foldDeadBits applies bit-level absorptions: and x,0 -> 0; or x,-1 -> -1;
// trunc of a value whose low bits come through an and-mask wide enough, etc.
func foldDeadBits(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Ty.IsVector() {
				continue
			}
			switch in.Op {
			case ir.OpAnd:
				if c, ok := constOp(in, 1); ok && c.IsZero() {
					replaceWithValue(&fu, in, ir.ConstInt(in.Ty, 0))
					i--
					n++
				}
			case ir.OpOr:
				if c, ok := constOp(in, 1); ok && allOnes(c, in.Ty.Kind) {
					replaceWithValue(&fu, in, ir.ConstInt(in.Ty, -1))
					i--
					n++
				}
			case ir.OpTrunc:
				// trunc(zext(x)) where widths round-trip -> x.
				if src, ok := in.Ops[0].(*ir.Instr); ok &&
					(src.Op == ir.OpZExt || src.Op == ir.OpSExt) &&
					src.Ops[0].Type() == in.Ty {
					replaceWithValue(&fu, in, src.Ops[0])
					i--
					n++
				}
			}
		}
	}
	return n
}

// deadStoreElim removes stores overwritten before any potential read, and
// trivially-dead stores to never-read allocas (via removeDeadAllocas in the
// registered pass).
func deadStoreElim(m *ir.Module, f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		// Scan backwards: a store is dead if a later store definitely
		// overwrites the same address with no intervening may-read.
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Op != ir.OpStore {
				continue
			}
			for j := i + 1; j < len(b.Instrs); j++ {
				later := b.Instrs[j]
				if later.Op == ir.OpStore {
					if later.Ops[1] == in.Ops[1] && later.Ops[0].Type() == in.Ops[0].Type() {
						b.RemoveAt(i)
						n++
						break
					}
					if mayAlias(later.Ops[1], in.Ops[1]) {
						break // partial overlap: give up
					}
					continue
				}
				if mayRead(m, later, in.Ops[1]) {
					break
				}
				if later.IsTerminator() {
					break
				}
			}
		}
	}
	return n
}

// mayRead reports whether in could read memory at ptr.
func mayRead(m *ir.Module, in *ir.Instr, ptr ir.Value) bool {
	switch in.Op {
	case ir.OpLoad:
		return mayAlias(in.Ops[0], ptr)
	case ir.OpCall:
		if ir.IsBuiltin(in.Callee) {
			return ir.BuiltinHasSideEffects(in.Callee) || !ir.BuiltinIsPure(in.Callee)
		}
		if callee := m.Func(in.Callee); callee != nil && callee.HasAttr(ir.AttrReadNone) {
			return false
		}
		return true
	}
	return false
}
