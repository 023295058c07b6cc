package passes

import (
	"repro/internal/ir"
)

func init() {
	register("sccp", "sparse conditional constant propagation",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("sccp.NumInstRemoved", runSCCP(m, f))
			})
		})

	register("ipsccp", "interprocedural SCCP: propagate constant arguments",
		func(m *ir.Module, st Stats) {
			st.Add("ipsccp.NumArgsReplaced", propagateConstArgs(m))
			forEachDefined(m, func(f *ir.Function) {
				st.Add("ipsccp.NumInstRemoved", runSCCP(m, f))
			})
		})
}

// runSCCP folds constants, resolves phis whose live incoming values agree,
// and rewrites conditional branches on constants into unconditional jumps
// (leaving unreachable-block removal to simplifycfg, as LLVM does).
func runSCCP(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for rounds := 0; rounds < 10; rounds++ {
		changed := 0
		cfg := ir.CFGOf(f)
		reach := cfg.Reachable()
		for _, b := range f.Blocks {
			if !reach.Has(b) {
				continue
			}
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				switch {
				case in.Op == ir.OpPhi:
					// A phi whose incomings from reachable preds are one
					// constant folds to it.
					var uniq *ir.Const
					ok := true
					for oi, op := range in.Ops {
						if !reach.Has(in.Blocks[oi]) {
							continue
						}
						c, isC := op.(*ir.Const)
						if !isC {
							ok = false
							break
						}
						if uniq == nil {
							uniq = c
						} else if uniq.I != c.I || uniq.F != c.F {
							ok = false
							break
						}
					}
					if ok && uniq != nil {
						replaceWithValue(&fu, in, uniq)
						changed++
					}
				case in.Op == ir.OpBr:
					if c, isC := in.Ops[0].(*ir.Const); isC {
						target := in.Blocks[1]
						dead := in.Blocks[0]
						if c.I != 0 {
							target, dead = dead, target
						}
						if removePhiIncoming(dead, b) {
							fu.drop() // phi operand slots shifted
						}
						in.Op = ir.OpJmp
						in.Ops = nil
						in.Blocks = []*ir.Block{target}
						changed++
					}
				case in.Op == ir.OpSwitch:
					if c, isC := in.Ops[0].(*ir.Const); isC {
						target := in.Blocks[0]
						for ci, cv := range in.Cases {
							if cv == c.I {
								target = in.Blocks[ci+1]
								break
							}
						}
						for _, tb := range in.Blocks {
							if tb != target && removePhiIncoming(tb, b) {
								fu.drop() // phi operand slots shifted
							}
						}
						in.Op = ir.OpJmp
						in.Ops = nil
						in.Cases = nil
						in.Blocks = []*ir.Block{target}
						changed++
					}
				case !in.Op.HasSideEffects() && in.Op != ir.OpLoad && in.Op != ir.OpAlloca:
					if c := foldConst(in); c != nil {
						replaceWithValue(&fu, in, c)
						changed++
					}
				}
			}
			b.Flush()
		}
		n += changed
		if changed == 0 {
			break
		}
	}
	return n
}

// removePhiIncoming drops the incoming edge from pred in every phi of b
// (used when an edge is deleted) and reports whether any phi lost one. Safe
// to call when no such incoming exists.
func removePhiIncoming(b *ir.Block, pred *ir.Block) bool {
	removed := false
	for _, phi := range b.Phis() {
		for i := 0; i < len(phi.Blocks); i++ {
			if phi.Blocks[i] == pred {
				phi.Ops = append(phi.Ops[:i], phi.Ops[i+1:]...)
				phi.Blocks = append(phi.Blocks[:i], phi.Blocks[i+1:]...)
				removed = true
				i--
			}
		}
	}
	return removed
}

// propagateConstArgs replaces parameter uses with constants when every call
// site of an internal function passes the same constant for that parameter.
func propagateConstArgs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		if f.IsDecl || !f.HasAttr(ir.AttrInternal) || len(f.Params) == 0 {
			continue
		}
		// Gather all call sites.
		type site struct{ call *ir.Instr }
		var sites []site
		for _, g := range m.Funcs {
			if g.IsDecl {
				continue
			}
			for _, b := range g.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall && in.Callee == f.Name {
						sites = append(sites, site{in})
					}
				}
			}
		}
		if len(sites) == 0 {
			continue
		}
		fu := funcUses{f: f}
		for pi, p := range f.Params {
			var uniq *ir.Const
			same := true
			for _, s := range sites {
				if pi >= len(s.call.Ops) {
					same = false
					break
				}
				c, ok := s.call.Ops[pi].(*ir.Const)
				if !ok {
					same = false
					break
				}
				if uniq == nil {
					uniq = c
				} else if uniq.I != c.I || uniq.F != c.F {
					same = false
					break
				}
			}
			if same && uniq != nil {
				n += fu.get().ReplaceAll(p, uniq)
			}
		}
		fu.done()
	}
	return n
}
