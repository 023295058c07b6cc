package passes

import (
	"repro/internal/ir"
)

// isPure reports whether in computes a value from its operands with no memory
// or control effects (safe to CSE, hoist, speculate or delete when unused).
// Loads are NOT pure (they read memory); pure builtin calls are pure only
// when the module-level "builtins-pure" fact has been inferred.
func isPure(m *ir.Module, in *ir.Instr) bool {
	switch {
	case in.Op.IsBinary(), in.Op.IsCast():
		// Division traps on zero; treat as non-speculatable but CSE-safe.
		return true
	case in.Op == ir.OpICmp, in.Op == ir.OpFCmp, in.Op == ir.OpSelect,
		in.Op == ir.OpGEP, in.Op == ir.OpBroadcast,
		in.Op == ir.OpExtractElement, in.Op == ir.OpInsertElement,
		in.Op == ir.OpVecReduceAdd:
		return true
	case in.Op == ir.OpCall:
		if ir.IsBuiltin(in.Callee) {
			return m != nil && m.HasMeta("builtins-pure") && ir.BuiltinIsPure(in.Callee)
		}
		if m != nil {
			if callee := m.Func(in.Callee); callee != nil {
				return callee.HasAttr(ir.AttrReadNone)
			}
		}
		return false
	}
	return false
}

// mayTrap reports whether speculative execution of in could fault.
func mayTrap(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpLoad, ir.OpStore, ir.OpCall:
		return true
	}
	return false
}

// removeDeadInstrs deletes unused side-effect-free instructions; when fixpoint
// is set it iterates until no more can be removed. Returns the removal count.
func removeDeadInstrs(m *ir.Module, f *ir.Function, fixpoint bool) int {
	total := 0
	sc := getScratch()
	defer putScratch(sc)
	// Nothing is inserted below, so one numbering serves every round.
	sc.byID = f.InstrsByID(sc.byID)
	byID := sc.byID
	dead := func(in *ir.Instr) bool {
		if in.IsTerminator() || in.Op == ir.OpStore || sc.marked(in.ID) {
			return false
		}
		if in.Op == ir.OpCall {
			if ir.IsBuiltin(in.Callee) {
				return ir.BuiltinIsPure(in.Callee)
			}
			callee := m.Func(in.Callee)
			return callee != nil && callee.HasAttr(ir.AttrReadNone)
		}
		return in.Op != ir.OpAlloca // allocas are removeDeadAllocas' to judge
	}
	for {
		// Mark the used instructions once per round; only an instruction of
		// f can be removed, so constants, globals, params and instructions
		// of no block of f are never marked.
		sc.newMarks(len(byID))
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, op := range in.Ops {
					if d, ok := op.(*ir.Instr); ok && uint(d.ID) < uint(len(byID)) && byID[d.ID] == d {
						sc.mark(d.ID)
					}
				}
			}
		}
		removed := 0
		for _, b := range f.Blocks {
			removed += b.RemoveIf(dead)
		}
		total += removed
		if removed == 0 || !fixpoint {
			break
		}
	}
	return total
}

// removeDeadAllocas deletes allocas that are only stored to (never loaded,
// never escaping), along with their stores.
func removeDeadAllocas(f *ir.Function) int {
	removed := 0
	fu := funcUses{f: f}
	defer fu.done()
	var stores []*ir.Instr
	for {
		changed := false
		for _, b := range f.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.Op != ir.OpAlloca {
					continue
				}
				// A store *to* the alloca is fine; anything else (load, GEP,
				// call arg, stored value) escapes.
				u := fu.get()
				onlyStores := true
				stores = stores[:0]
				for _, x := range u.Of(in) {
					if x.User.Op != ir.OpStore || x.Slot != 1 {
						onlyStores = false
						break
					}
					stores = append(stores, x.User)
				}
				if !onlyStores {
					continue
				}
				for _, st := range stores {
					ob := st.Parent()
					ob.RemoveAt(ob.IndexOf(st))
					u.Remove(st)
					removed++
				}
				b.RemoveAt(b.IndexOf(in))
				u.Remove(in)
				removed++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return removed
}

// baseObject follows a GEP chain to its root object: an alloca instruction, a
// global, or nil when the root cannot be identified (parameter pointers,
// arbitrary arithmetic).
func baseObject(v ir.Value) ir.Value {
	for {
		switch t := v.(type) {
		case *ir.Global:
			return t
		case *ir.Instr:
			switch t.Op {
			case ir.OpAlloca:
				return t
			case ir.OpGEP:
				v = t.Ops[0]
			default:
				return nil
			}
		default:
			return nil
		}
	}
}

// mayAlias conservatively decides whether two pointers can refer to the same
// memory: distinct identified objects never alias; everything else may.
func mayAlias(p, q ir.Value) bool {
	bp, bq := baseObject(p), baseObject(q)
	if bp == nil || bq == nil {
		return true
	}
	if bp != bq {
		return false
	}
	// Same base: distinct constant offsets from the same direct GEP level
	// do not alias.
	op, okp := constOffsetFrom(bp, p)
	oq, okq := constOffsetFrom(bq, q)
	if okp && okq && op != oq {
		return false
	}
	return true
}

// constOffsetFrom returns the constant element offset of ptr from base when
// the entire GEP chain uses constant indices.
func constOffsetFrom(base, ptr ir.Value) (int64, bool) {
	off := int64(0)
	v := ptr
	for v != base {
		in, ok := v.(*ir.Instr)
		if !ok || in.Op != ir.OpGEP {
			return 0, false
		}
		c, ok := in.ConstOperand(1)
		if !ok {
			return 0, false
		}
		off += c.I
		v = in.Ops[0]
	}
	return off, true
}

// symbolicAddr decomposes a pointer into root + sym + off, where root is an
// identified object (alloca/global) or a pointer-typed parameter, sym is at
// most one non-constant index value, and off is the accumulated constant
// offset. It sees through `add(x, c)` indices, so loads at iv+0..iv+3 in an
// unrolled loop body are recognised as consecutive.
func symbolicAddr(v ir.Value) (root ir.Value, sym ir.Value, off int64, ok bool) {
	for {
		switch t := v.(type) {
		case *ir.Global:
			return t, sym, off, true
		case *ir.Param:
			if t.Ty == ir.PtrT {
				return t, sym, off, true
			}
			return nil, nil, 0, false
		case *ir.Instr:
			switch t.Op {
			case ir.OpAlloca:
				return t, sym, off, true
			case ir.OpGEP:
				idx := t.Ops[1]
				// Peel add-with-constant chains off the index.
				for {
					if c, isC := idx.(*ir.Const); isC {
						off += c.I
						idx = nil
						break
					}
					ai, isI := idx.(*ir.Instr)
					if !isI || ai.Op != ir.OpAdd {
						break
					}
					if c, isC := ai.ConstOperand(1); isC {
						off += c.I
						idx = ai.Ops[0]
						continue
					}
					if c, isC := ai.ConstOperand(0); isC {
						off += c.I
						idx = ai.Ops[1]
						continue
					}
					break
				}
				if idx != nil {
					if sym != nil && sym != idx {
						return nil, nil, 0, false // two symbolic parts
					}
					sym = idx
				}
				v = t.Ops[0]
			default:
				return nil, nil, 0, false
			}
		default:
			return nil, nil, 0, false
		}
	}
}

// addressTakenAllocas returns the set of allocas whose address escapes the
// load/store discipline (passed to calls, stored as a value, etc.).
func addressTakenAllocas(f *ir.Function) map[*ir.Instr]bool {
	taken := make(map[*ir.Instr]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for oi, op := range in.Ops {
				a, ok := op.(*ir.Instr)
				if !ok || a.Op != ir.OpAlloca {
					continue
				}
				switch {
				case in.Op == ir.OpLoad && oi == 0:
				case in.Op == ir.OpStore && oi == 1:
				case in.Op == ir.OpGEP && oi == 0:
				default:
					taken[a] = true
				}
			}
		}
	}
	return taken
}

// loopHasMemoryEffects reports whether any block of l contains a store or a
// call with side effects.
func loopHasMemoryEffects(m *ir.Module, l *ir.Loop) bool {
	for _, b := range l.Blocks() {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				return true
			case ir.OpCall:
				if ir.IsBuiltin(in.Callee) {
					if ir.BuiltinHasSideEffects(in.Callee) {
						return true
					}
					continue
				}
				callee := m.Func(in.Callee)
				if callee == nil || !callee.HasAttr(ir.AttrReadNone) {
					return true
				}
			}
		}
	}
	return false
}

// valueLess imposes an arbitrary but stable order on values for canonical
// commutative operand ordering.
func valueLess(a, b ir.Value) bool {
	ra, rb := valueRank(a), valueRank(b)
	if ra != rb {
		return ra < rb
	}
	ca, okA := a.(*ir.Const)
	cb, okB := b.(*ir.Const)
	if okA && okB {
		if ca.I != cb.I {
			return ca.I < cb.I
		}
		return ca.F < cb.F
	}
	ia, okA := a.(*ir.Instr)
	ib, okB := b.(*ir.Instr)
	if okA && okB {
		return ia.ID < ib.ID
	}
	pa, okA := a.(*ir.Param)
	pb, okB := b.(*ir.Param)
	if okA && okB {
		return pa.Index < pb.Index
	}
	return false
}

func valueRank(v ir.Value) int {
	switch v.(type) {
	case *ir.Param:
		return 0
	case *ir.Global:
		return 1
	case *ir.Instr:
		return 2
	case *ir.Const:
		return 3
	}
	return 4
}
