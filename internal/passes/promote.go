package passes

import (
	"repro/internal/ir"
)

// promoteAllocas rewrites promotable scalar allocas into SSA form: loads
// become uses of the reaching definition, stores become definitions, and phi
// nodes are inserted at join points (maximal SSA followed by trivial-phi
// elimination). It returns the number of promoted allocas and inserted phis.
//
// This is the engine behind mem2reg and the promotion half of sroa, and the
// single most enabling transformation in the pass space: instcombine, GVN and
// both vectorisers see through values only after promotion (§5.2).
func promoteAllocas(f *ir.Function) (promoted, phis int) {
	taken := addressTakenAllocas(f)
	var vars []*ir.Instr
	isVar := make(map[*ir.Instr]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAlloca || in.NAlloc != 1 || in.AllocTy.IsVector() ||
				in.AllocTy.Kind == ir.Void || taken[in] {
				continue
			}
			vars = append(vars, in)
			isVar[in] = true
		}
	}
	if len(vars) == 0 {
		return 0, 0
	}

	cfg, dt := domOf(f)
	reach := cfg.Reachable()

	// Insert a phi per variable in every reachable join block (maximal SSA).
	type phiInfo struct {
		phi *ir.Instr
		v   *ir.Instr
	}
	var inserted []phiInfo
	phiFor := make(map[*ir.Block]map[*ir.Instr]*ir.Instr)
	for _, b := range f.Blocks {
		if !reach.Has(b) || len(cfg.Preds(b)) < 2 {
			continue
		}
		phiFor[b] = make(map[*ir.Instr]*ir.Instr)
		for _, v := range vars {
			phi := &ir.Instr{Op: ir.OpPhi, Ty: v.AllocTy}
			b.InsertBefore(0, phi)
			phiFor[b][v] = phi
			inserted = append(inserted, phiInfo{phi, v})
		}
	}

	zeroOf := func(t ir.Type) ir.Value {
		if t.Kind.IsFloat() {
			return ir.ConstFloat(t, 0)
		}
		return ir.ConstInt(t, 0)
	}

	// Rename along the dominator tree.
	rep := make(map[*ir.Instr]ir.Value) // deleted load -> reaching value
	endDef := make(map[*ir.Block]map[*ir.Instr]ir.Value)
	var toDelete []*ir.Instr

	var rename func(b *ir.Block, cur map[*ir.Instr]ir.Value)
	rename = func(b *ir.Block, cur map[*ir.Instr]ir.Value) {
		local := make(map[*ir.Instr]ir.Value, len(cur))
		for k, v := range cur {
			local[k] = v
		}
		if m := phiFor[b]; m != nil {
			for _, v := range vars {
				if phi, ok := m[v]; ok {
					local[v] = phi
				}
			}
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				if a, ok := in.Ops[0].(*ir.Instr); ok && isVar[a] {
					rep[in] = local[a]
					toDelete = append(toDelete, in)
				}
			case ir.OpStore:
				if a, ok := in.Ops[1].(*ir.Instr); ok && isVar[a] {
					local[a] = in.Ops[0]
					toDelete = append(toDelete, in)
				}
			}
		}
		endDef[b] = local
		for _, c := range dt.Children(b) {
			rename(c, local)
		}
	}
	init := make(map[*ir.Instr]ir.Value, len(vars))
	for _, v := range vars {
		init[v] = zeroOf(v.AllocTy)
	}
	rename(f.Entry(), init)

	// Unreachable blocks are not visited by the dominator-tree rename, but
	// they may still reference promoted allocas; neutralise those uses so
	// the allocas can be deleted without dangling references.
	for _, b := range f.Blocks {
		if reach.Has(b) {
			continue
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				if a, ok := in.Ops[0].(*ir.Instr); ok && isVar[a] {
					rep[in] = zeroOf(in.Ty)
					toDelete = append(toDelete, in)
				}
			case ir.OpStore:
				if a, ok := in.Ops[1].(*ir.Instr); ok && isVar[a] {
					toDelete = append(toDelete, in)
				}
			}
		}
	}

	// resolve follows the replacement chain to a surviving value.
	var resolve func(v ir.Value) ir.Value
	resolve = func(v ir.Value) ir.Value {
		for {
			in, ok := v.(*ir.Instr)
			if !ok {
				return v
			}
			next, ok := rep[in]
			if !ok {
				return v
			}
			v = next
		}
	}

	// Fill phi incomings from each predecessor's end-of-block definitions.
	for _, b := range f.Blocks {
		m := phiFor[b]
		if m == nil {
			continue
		}
		for _, p := range cfg.Preds(b) {
			defs := endDef[p]
			for _, v := range vars {
				phi, ok := m[v]
				if !ok {
					continue
				}
				var val ir.Value
				if defs != nil {
					val = defs[v]
				}
				if val == nil {
					val = zeroOf(v.AllocTy)
				}
				ir.AddIncoming(phi, resolve(val), p)
			}
		}
	}

	// Rewrite every remaining operand through the replacement map.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, op := range in.Ops {
				in.Ops[i] = resolve(op)
			}
		}
	}

	// Delete promoted loads, stores and the allocas themselves.
	del := make(map[*ir.Instr]bool, len(toDelete))
	for _, in := range toDelete {
		del[in] = true
	}
	for _, v := range vars {
		del[v] = true
	}
	for _, b := range f.Blocks {
		b.RemoveIf(func(in *ir.Instr) bool { return del[in] })
	}

	// Trivial phi elimination: a phi whose incoming values (ignoring itself)
	// are all the same value collapses to that value.
	alive := make(map[*ir.Instr]bool, len(inserted))
	for _, pi := range inserted {
		alive[pi.phi] = true
	}
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		for _, pi := range inserted {
			phi := pi.phi
			if !alive[phi] || phi.Parent() == nil {
				continue
			}
			var uniq ir.Value
			trivial := true
			for _, op := range phi.Ops {
				if op == phi {
					continue
				}
				if uniq == nil {
					uniq = op
				} else if uniq != op {
					trivial = false
					break
				}
			}
			if trivial && uniq != nil {
				replaceWithValue(&fu, phi, uniq)
				alive[phi] = false
				changed = true
			}
		}
	}
	remaining := 0
	for _, pi := range inserted {
		if alive[pi.phi] {
			remaining++
		}
	}
	return len(vars), remaining
}

func init() {
	register("mem2reg", "promote scalar allocas to SSA registers",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				p, ph := promoteAllocas(f)
				st.Add("mem2reg.NumPromoted", p)
				st.Add("mem2reg.NumPHIInsert", ph)
			})
		})

	register("sroa", "scalar replacement of aggregates, then promotion",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("sroa.NumReplaced", splitAggregates(f))
				p, ph := promoteAllocas(f)
				st.Add("sroa.NumPromoted", p)
				st.Add("sroa.NumPHIInsert", ph)
			})
		})

	register("reg2mem", "demote SSA phis back to stack slots",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("reg2mem.NumPhisDemoted", demotePhis(f))
			})
		})
}

// splitAggregates replaces a multi-element alloca whose accesses are all
// constant-index GEPs with one scalar alloca per accessed element, enabling
// promotion.
func splitAggregates(f *ir.Function) int {
	split := 0
	fu := funcUses{f: f}
	defer fu.done()
	var geps []*ir.Instr
	for _, b := range f.Blocks {
		for bi := len(b.Instrs) - 1; bi >= 0; bi-- {
			in := b.Instrs[bi]
			if in.Op != ir.OpAlloca || in.NAlloc <= 1 || in.NAlloc > 32 || in.AllocTy.IsVector() {
				continue
			}
			// All uses must be GEPs with constant indices, themselves used
			// only as load/store addresses.
			u := fu.get()
			ok := true
			geps = geps[:0]
			for _, x := range u.Of(in) {
				g := x.User
				if g.Op != ir.OpGEP || x.Slot != 0 {
					ok = false
					break
				}
				c, isC := g.ConstOperand(1)
				if !isC || c.I < 0 || c.I >= int64(in.NAlloc) {
					ok = false
					break
				}
				geps = append(geps, g)
			}
			for _, g := range geps {
				for _, x := range u.Of(g) {
					if !(x.User.Op == ir.OpLoad && x.Slot == 0 || x.User.Op == ir.OpStore && x.Slot == 1) {
						ok = false
					}
				}
			}
			if !ok {
				continue
			}
			// Create one scalar alloca per element, right after the original.
			elems := make([]*ir.Instr, in.NAlloc)
			pos := b.IndexOf(in)
			for e := 0; e < in.NAlloc; e++ {
				na := &ir.Instr{Op: ir.OpAlloca, Ty: ir.PtrT, AllocTy: in.AllocTy, NAlloc: 1}
				b.InsertBefore(pos+1+e, na)
				fu.inserted(na)
				elems[e] = na
			}
			for _, g := range geps {
				c, _ := g.ConstOperand(1)
				replaceNow(&fu, g, elems[c.I])
			}
			b.RemoveAt(b.IndexOf(in))
			fu.removed(in)
			split++
		}
	}
	return split
}

// demotePhis is the inverse of promotion: each phi becomes a stack slot with
// stores at the end of predecessors and a load replacing the phi. This is a
// genuine (deoptimising) member of the search space, mirroring LLVM's
// reg2mem.
func demotePhis(f *ir.Function) int {
	demoted := 0
	fu := funcUses{f: f}
	defer fu.done()
	entry := f.Entry()
	for _, b := range f.Blocks {
		phis := b.Phis()
		if len(phis) == 0 {
			continue
		}
		for _, phi := range phis {
			slot := &ir.Instr{Op: ir.OpAlloca, Ty: ir.PtrT, AllocTy: phi.Ty, NAlloc: 1}
			entry.InsertBefore(0, slot)
			fu.inserted(slot)
			for i, from := range phi.Blocks {
				st := &ir.Instr{Op: ir.OpStore, Ty: ir.VoidT, Ops: []ir.Value{phi.Ops[i], slot}}
				// Insert before the predecessor's terminator.
				from.InsertBefore(len(from.Instrs)-1, st)
				fu.inserted(st)
			}
			ld := &ir.Instr{Op: ir.OpLoad, Ty: phi.Ty, Ops: []ir.Value{slot}}
			idx := b.IndexOf(phi)
			b.InsertBefore(idx+1, ld)
			fu.inserted(ld)
			replaceNow(&fu, phi, ld)
			demoted++
		}
	}
	return demoted
}
