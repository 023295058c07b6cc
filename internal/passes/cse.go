package passes

import (
	"repro/internal/ir"
)

// cseConfig selects the scope and power of a CSE/GVN-style pass.
type cseConfig struct {
	global    bool // dominator-scoped (else single-block)
	loads     bool // eliminate redundant loads
	calls     bool // value-number pure calls (needs function-attrs/inferattrs)
	phiValues bool // value-number identical phis (newgvn)
}

// runCSE performs value numbering and returns (#instructions, #loads) CSE'd.
func runCSE(m *ir.Module, f *ir.Function, cfg cseConfig) (int, int) {
	nInstr, nLoad := 0, 0
	fu := funcUses{f: f}
	defer fu.done()
	// pureKey canonicalizes commutative operands via ID comparison; refresh
	// IDs so matching is a pure function of structure, not of ID history.
	f.Renumber()
	var cfgG *ir.CFG
	var dt *ir.DomTree
	if cfg.global {
		cfgG, dt = domOf(f)
	}

	// Pure-expression facts are immutable SSA values: a block sees those of
	// the blocks that dominate it (its own only, when block-local). One table
	// serves the whole walk — the keys a block adds are logged and deleted
	// again when its dominator subtree is done — instead of a copy per block,
	// and it is pooled scratch, so it is not re-grown per function either.
	scr := getScratch()
	defer putScratch(scr)
	exprs := scr.exprs
	addExpr := func(k instrKey, in *ir.Instr) {
		scr.added = append(scr.added, k)
		exprs[k] = in
	}

	// visit value-numbers b and then, when dominator-scoped, its dominator-
	// tree children in function block order. Load facts describe memory,
	// which is only unchanged when b's sole CFG predecessor is the block
	// whose end-state (inherited) it is handed — at joins and loop headers
	// (back-edge preds) the inherited memory facts must be dropped.
	var visit func(b *ir.Block, inherited map[loadKey]*ir.Instr)
	visit = func(b *ir.Block, inherited map[loadKey]*ir.Instr) {
		mark := len(scr.added)
		loads := make(map[loadKey]*ir.Instr)
		if cfg.global && len(cfgG.Preds(b)) == 1 {
			for k, v := range inherited {
				loads[k] = v
			}
		}

		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			switch {
			case in.Op == ir.OpLoad && cfg.loads:
				if in.Ty.IsVector() {
					continue
				}
				k := loadKey{ptr: in.Ops[0], ty: in.Ty}
				if prev, ok := loads[k]; ok {
					replaceWithValue(&fu, in, prev)
					i--
					nLoad++
					continue
				}
				loads[k] = in
			case in.Op == ir.OpStore:
				// Invalidate may-aliasing loads; remember forwarding value.
				for k := range loads {
					if mayAlias(k.ptr, in.Ops[1]) {
						delete(loads, k)
					}
				}

			case in.Op == ir.OpCall:
				pureCall := false
				if cfg.calls {
					if ir.IsBuiltin(in.Callee) {
						pureCall = m.HasMeta("builtins-pure") && ir.BuiltinIsPure(in.Callee)
					} else if callee := m.Func(in.Callee); callee != nil {
						pureCall = callee.HasAttr(ir.AttrReadNone)
					}
				}
				if pureCall {
					if k, ok := pureKey(in); ok {
						if prev, ok2 := exprs[k]; ok2 {
							replaceWithValue(&fu, in, prev)
							i--
							nInstr++
							continue
						}
						addExpr(k, in)
					}
					continue
				}
				// Unknown call: clobber memory (unless provably read-only).
				readOnly := false
				if callee := m.Func(in.Callee); callee != nil {
					readOnly = callee.HasAttr(ir.AttrReadOnly) || callee.HasAttr(ir.AttrReadNone)
				} else if ir.IsBuiltin(in.Callee) {
					readOnly = !ir.BuiltinHasSideEffects(in.Callee)
				}
				if !readOnly {
					loads = make(map[loadKey]*ir.Instr)

				}
			case isPure(m, in) && !mayTrap(in):
				if k, ok := pureKey(in); ok {
					prev, ok2 := exprs[k]
					if ok2 && prev != in {
						replaceWithValue(&fu, in, prev)
						i--
						nInstr++
						continue
					}
					if !ok2 {
						addExpr(k, in)
					}
				}
			case in.Op == ir.OpPhi && cfg.phiValues:
				// Identical phis in the same block collapse.
				for _, other := range b.Phis() {
					if other == in || other.Ty != in.Ty || len(other.Ops) != len(in.Ops) {
						continue
					}
					same := true
					for oi := range in.Ops {
						if in.Ops[oi] != other.Ops[oi] || in.Blocks[oi] != other.Blocks[oi] {
							same = false
							break
						}
					}
					if same && b.IndexOf(other) < b.IndexOf(in) {
						replaceWithValue(&fu, in, other)
						i--
						nInstr++
						break
					}
				}
			}
		}
		if cfg.global {
			for _, c := range dt.Children(b) {
				visit(c, loads)
			}
		}
		for i, k := range scr.added[mark:] {
			delete(exprs, k)
			scr.added[mark+i] = instrKey{} // the pooled log must not pin the IR
		}
		scr.added = scr.added[:mark]
	}

	if cfg.global {
		visit(f.Entry(), nil)
	} else {
		for _, b := range f.Blocks {
			visit(b, nil)
		}
	}
	return nInstr, nLoad
}

type loadKey struct {
	ptr ir.Value
	ty  ir.Type
}

func init() {
	register("early-cse", "block-local common subexpression elimination",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				ni, nl := runCSE(m, f, cseConfig{loads: true})
				st.Add("early-cse.NumCSE", ni)
				st.Add("early-cse.NumCSELoad", nl)
			})
		})

	register("early-cse-memssa", "dominator-scoped CSE with memory SSA",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				ni, nl := runCSE(m, f, cseConfig{global: true, loads: true})
				st.Add("early-cse-memssa.NumCSE", ni)
				st.Add("early-cse-memssa.NumCSELoad", nl)
			})
		})

	register("gvn", "global value numbering with load and call elimination",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				ni, nl := runCSE(m, f, cseConfig{global: true, loads: true, calls: true})
				st.Add("gvn.NumGVNInstr", ni)
				st.Add("gvn.NumGVNLoad", nl)
			})
		})

	register("newgvn", "GVN that also value-numbers phi nodes",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				ni, nl := runCSE(m, f, cseConfig{global: true, loads: true, calls: true, phiValues: true})
				st.Add("newgvn.NumGVNInstr", ni)
				st.Add("newgvn.NumGVNLoad", nl)
			})
		})

	register("gvn-hoist", "hoist identical computations from sibling blocks",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("gvn-hoist.NumHoisted", hoistCommon(m, f, false))
			})
		})

	register("gvn-sink", "sink identical computations into the common successor",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("gvn-sink.NumSunk", sinkCommon(m, f))
			})
		})

	register("mldst-motion", "merged load/store motion across diamonds",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("mldst-motion.NumHoisted", hoistCommon(m, f, true))
			})
		})
}

// hoistCommon hoists instructions computed identically at the head of both
// arms of a two-way branch into the branching block. loadsOnly restricts the
// rewrite to loads (mldst-motion); otherwise pure ops are hoisted (gvn-hoist).
func hoistCommon(m *ir.Module, f *ir.Function, loadsOnly bool) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	cfg := ir.BuildCFG(f)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		x, y := t.Blocks[0], t.Blocks[1]
		if x == y || len(cfg.Preds(x)) != 1 || len(cfg.Preds(y)) != 1 {
			continue
		}
		for {
			if len(x.Instrs) == 0 || len(y.Instrs) == 0 {
				break
			}
			a, c := x.Instrs[0], y.Instrs[0]
			if a.IsTerminator() || c.IsTerminator() || a.Op == ir.OpPhi || c.Op == ir.OpPhi {
				break
			}
			okKind := false
			if loadsOnly {
				okKind = a.Op == ir.OpLoad && c.Op == ir.OpLoad
			} else {
				okKind = isPure(m, a) && isPure(m, c) && !mayTrap(a)
			}
			if !okKind || !sameComputation(a, c) {
				break
			}
			// Move a into b before the terminator, replace c with a.
			x.RemoveAt(0)
			b.InsertBefore(b.IndexOf(t), a)
			replaceWithValue(&fu, c, a)
			n++
		}
	}
	return n
}

// sinkCommon sinks instructions computed identically at the tails of two
// predecessors into their common single successor.
func sinkCommon(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	cfg := ir.BuildCFG(f)
	for _, b := range f.Blocks {
		preds := cfg.Preds(b)
		if len(preds) != 2 || len(b.Phis()) > 0 {
			continue
		}
		p0, p1 := preds[0], preds[1]
		if len(cfg.Succs(p0)) != 1 || len(cfg.Succs(p1)) != 1 {
			continue
		}
		for {
			i0, i1 := len(p0.Instrs)-2, len(p1.Instrs)-2 // skip terminators
			if i0 < 0 || i1 < 0 {
				break
			}
			a, c := p0.Instrs[i0], p1.Instrs[i1]
			if a.Op == ir.OpPhi || c.Op == ir.OpPhi || !isPure(m, a) || !isPure(m, c) ||
				!sameComputation(a, c) {
				break
			}
			// Values must not be used in their own blocks after this point.
			if usedIn(fu.get(), p0, a) || usedIn(fu.get(), p1, c) {
				break
			}
			p0.RemoveAt(i0)
			b.InsertBefore(len(b.Phis()), a)
			replaceWithValue(&fu, c, a)
			n++
		}
	}
	return n
}

// usedIn reports whether an instruction of b uses v.
func usedIn(u *ir.Uses, b *ir.Block, v ir.Value) bool {
	for _, x := range u.Of(v) {
		if x.User.Parent() == b {
			return true
		}
	}
	return false
}

// sameComputation reports whether two instructions compute the same value
// given identical operands.
func sameComputation(a, b *ir.Instr) bool {
	if a.Op != b.Op || a.Ty != b.Ty || a.Pred != b.Pred || a.Callee != b.Callee ||
		len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if canonVal(a.Ops[i]) != canonVal(b.Ops[i]) {
			return false
		}
	}
	return true
}
