package passes

import (
	"slices"
	"strconv"

	"repro/internal/ir"
)

func init() {
	register("inline", "inline small functions into their callers",
		func(m *ir.Module, st Stats) {
			st.Add("inline.NumInlined", inlineCalls(m, 45, false))
		})

	register("always-inline", "inline functions marked always_inline",
		func(m *ir.Module, st Stats) {
			st.Add("always-inline.NumInlined", inlineCalls(m, 1<<30, true))
		})

	register("function-attrs", "infer readnone/readonly function attributes",
		func(m *ir.Module, st Stats) {
			st.Add("function-attrs.NumReadNone", inferFunctionAttrs(m, 1))
		})

	register("rpo-function-attrs", "function attribute inference over the call graph",
		func(m *ir.Module, st Stats) {
			st.Add("rpo-function-attrs.NumReadNone", inferFunctionAttrs(m, 4))
		})

	register("inferattrs", "mark runtime builtins with known attributes",
		func(m *ir.Module, st Stats) {
			if !m.HasMeta("builtins-pure") {
				m.SetMeta("builtins-pure")
				st.Add("inferattrs.NumAttrsInferred", 1)
			}
		})

	register("globalopt", "constant-fold loads from never-written globals",
		func(m *ir.Module, st Stats) {
			c, l := globalOpt(m)
			st.Add("globalopt.NumMarkedConst", c)
			st.Add("globalopt.NumLoadsFolded", l)
		})

	register("globaldce", "remove unreferenced internal functions and globals",
		func(m *ir.Module, st Stats) {
			f, g := globalDCE(m)
			st.Add("globaldce.NumFunctions", f)
			st.Add("globaldce.NumVariables", g)
		})

	register("deadargelim", "remove unused arguments of internal functions",
		func(m *ir.Module, st Stats) {
			st.Add("deadargelim.NumArgumentsEliminated", deadArgElim(m))
		})

	register("argpromotion", "pass loaded values instead of pointers",
		func(m *ir.Module, st Stats) {
			st.Add("argpromotion.NumArgumentsPromoted", promoteArguments(m))
		})

	register("constmerge", "merge identical constant globals",
		func(m *ir.Module, st Stats) {
			st.Add("constmerge.NumMerged", mergeConstGlobals(m))
		})

	register("strip-dead-prototypes", "drop unused external declarations",
		func(m *ir.Module, st Stats) {
			st.Add("strip-dead-prototypes.NumDeadPrototypes", stripDeadPrototypes(m))
		})

	register("mergefunc", "deduplicate structurally identical functions",
		func(m *ir.Module, st Stats) {
			st.Add("mergefunc.NumMerged", mergeFunctions(m))
		})
}

// inlineCalls inlines eligible call sites found at pass entry (one round, as
// in a single inliner invocation). alwaysOnly restricts to AttrAlwaysInline.
func inlineCalls(m *ir.Module, threshold int, alwaysOnly bool) int {
	const maxCallerSize = 4000
	type siteRec struct {
		caller *ir.Function
		call   *ir.Instr
	}
	var sites []siteRec
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && !ir.IsBuiltin(in.Callee) {
					sites = append(sites, siteRec{f, in})
				}
			}
		}
	}
	n := 0
	for _, s := range sites {
		callee := m.Func(s.call.Callee)
		if callee == nil || callee.IsDecl || callee == s.caller ||
			callee.HasAttr(ir.AttrNoInline) {
			continue
		}
		if alwaysOnly {
			if !callee.HasAttr(ir.AttrAlwaysInline) {
				continue
			}
		} else if callee.NumInstrs() > threshold && !callee.HasAttr(ir.AttrAlwaysInline) {
			continue
		}
		if s.caller.NumInstrs() > maxCallerSize {
			continue
		}
		if s.call.Parent() == nil {
			continue // site removed by an earlier inline in this round
		}
		if inlineOneSite(s.caller, s.call, callee) {
			n++
		}
	}
	return n
}

// inlineOneSite splices a clone of callee's body into caller at the call.
func inlineOneSite(caller *ir.Function, call *ir.Instr, callee *ir.Function) bool {
	b := call.Parent()
	idx := b.IndexOf(call)
	if idx < 0 {
		return false
	}
	clone := ir.CloneFunction(callee)
	// Bind arguments.
	for pi, p := range clone.Params {
		if pi < len(call.Ops) {
			ir.ReplaceAllUses(clone, p, call.Ops[pi])
		}
	}
	// Split b: `cont` receives everything after the call (incl. terminator).
	cont := &ir.Block{Name: b.Name + "_inl"}
	ir.AttachBlock(cont, caller)
	for i := idx + 1; i < len(b.Instrs); i++ {
		cont.Append(b.Instrs[i])
	}
	b.Instrs = b.Instrs[:idx] // drops the call too

	// Successor phis that referenced b now come from cont.
	for _, blk := range caller.Blocks {
		for _, phi := range blk.Phis() {
			for i, fb := range phi.Blocks {
				if fb == b {
					phi.Blocks[i] = cont
				}
			}
		}
	}

	// Adopt cloned blocks; hoist cloned allocas into the caller entry so
	// loops around the inlined body do not re-allocate.
	entry := caller.Entry()
	for _, cb := range clone.Blocks {
		ir.AttachBlock(cb, caller)
		cb.Name = callee.Name + "." + cb.Name
		for i := 0; i < len(cb.Instrs); {
			if cb.Instrs[i].Op == ir.OpAlloca {
				a := cb.Instrs[i]
				cb.RemoveAt(i)
				entry.InsertBefore(0, a)
				continue
			}
			i++
		}
	}

	// Rewrite cloned returns to jumps into cont; collect return values.
	type retVal struct {
		v    ir.Value
		from *ir.Block
	}
	var rets []retVal
	for _, cb := range clone.Blocks {
		t := cb.Term()
		if t == nil || t.Op != ir.OpRet {
			continue
		}
		var v ir.Value
		if len(t.Ops) > 0 {
			v = t.Ops[0]
		}
		t.Op = ir.OpJmp
		t.Ops = nil
		t.Blocks = []*ir.Block{cont}
		rets = append(rets, retVal{v, cb})
	}
	// (If the callee never returns, cont simply becomes unreachable; it is
	// still well-formed because it inherited b's terminator.)

	// Jump from b into the cloned entry.
	b.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{clone.Blocks[0]}})

	// Insert the new blocks after b in layout order BEFORE rewriting uses,
	// so ReplaceAllUses sees the moved instructions in cont.
	pos := -1
	for i, blk := range caller.Blocks {
		if blk == b {
			pos = i
			break
		}
	}
	newBlocks := append([]*ir.Block{}, clone.Blocks...)
	newBlocks = append(newBlocks, cont)
	tail := append([]*ir.Block{}, caller.Blocks[pos+1:]...)
	caller.Blocks = append(caller.Blocks[:pos+1], append(newBlocks, tail...)...)

	// Replace uses of the call result.
	if call.Ty != ir.VoidT && len(rets) > 0 {
		var result ir.Value
		if len(rets) == 1 {
			result = rets[0].v
		} else {
			phi := &ir.Instr{Op: ir.OpPhi, Ty: call.Ty}
			for _, r := range rets {
				ir.AddIncoming(phi, r.v, r.from)
			}
			cont.InsertBefore(0, phi)
			result = phi
		}
		ir.ReplaceAllUses(caller, call, result)
	}
	return true
}

// inferFunctionAttrs computes readnone/readonly attributes bottom-up;
// `rounds` fixpoint iterations propagate through call chains.
func inferFunctionAttrs(m *ir.Module, rounds int) int {
	n := 0
	for r := 0; r < rounds; r++ {
		changed := false
		for _, f := range m.Funcs {
			if f.IsDecl || f.HasAttr(ir.AttrReadNone) {
				continue
			}
			readNone, readOnly := true, true
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					switch in.Op {
					case ir.OpLoad:
						// Loads from own allocas stay invisible; loads from
						// globals/params break readnone.
						if base := baseObject(in.Ops[0]); base == nil {
							readNone = false
						} else if _, isG := base.(*ir.Global); isG {
							readNone = false
						}
					case ir.OpStore:
						if base := baseObject(in.Ops[1]); base == nil {
							readNone, readOnly = false, false
						} else if _, isG := base.(*ir.Global); isG {
							readNone, readOnly = false, false
						}
					case ir.OpCall:
						if ir.IsBuiltin(in.Callee) {
							if !ir.BuiltinIsPure(in.Callee) {
								readNone, readOnly = false, false
							}
							continue
						}
						callee := m.Func(in.Callee)
						if callee == nil {
							readNone, readOnly = false, false
						} else {
							if !callee.HasAttr(ir.AttrReadNone) {
								readNone = false
							}
							if !callee.HasAttr(ir.AttrReadOnly) && !callee.HasAttr(ir.AttrReadNone) {
								readOnly = false
							}
						}
					}
				}
			}
			if readNone && !f.HasAttr(ir.AttrReadNone) {
				f.Attrs |= ir.AttrReadNone
				changed = true
				n++
			} else if readOnly && !f.HasAttr(ir.AttrReadOnly) {
				f.Attrs |= ir.AttrReadOnly
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return n
}

// globalOpt marks never-stored globals constant and folds constant-index
// loads from them.
func globalOpt(m *ir.Module) (int, int) {
	stored := make(map[*ir.Global]bool)
	addrEscapes := make(map[*ir.Global]bool)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for oi, op := range in.Ops {
					g, ok := op.(*ir.Global)
					if !ok {
						continue
					}
					switch {
					case in.Op == ir.OpLoad && oi == 0:
					case in.Op == ir.OpGEP && oi == 0:
					case in.Op == ir.OpStore && oi == 1:
						stored[g] = true
					default:
						addrEscapes[g] = true
					}
				}
				// Stores through GEPs of the global.
				if in.Op == ir.OpStore {
					if base := baseObject(in.Ops[1]); base != nil {
						if g, ok := base.(*ir.Global); ok {
							stored[g] = true
						}
					}
				}
			}
		}
	}
	marked := 0
	for _, g := range m.Globals {
		if !g.Const && !stored[g] && !addrEscapes[g] && (g.InitI != nil || g.InitF != nil) {
			g.Const = true
			marked++
		}
	}
	// Fold loads from const globals at constant offsets.
	folded := 0
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		fu := funcUses{f: f}
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if in.Op != ir.OpLoad || in.Ty.IsVector() {
					continue
				}
				base := baseObject(in.Ops[0])
				g, ok := base.(*ir.Global)
				if !ok || !g.Const {
					continue
				}
				off, okO := constOffsetFrom(g, in.Ops[0])
				if !okO || off < 0 || off >= int64(g.Size) {
					continue
				}
				var c *ir.Const
				if in.Ty.Kind.IsFloat() {
					v := 0.0
					if int(off) < len(g.InitF) {
						v = g.InitF[off]
					}
					c = ir.ConstFloat(in.Ty, v)
				} else {
					var v int64
					if int(off) < len(g.InitI) {
						v = g.InitI[off]
					}
					c = ir.ConstInt(in.Ty, v)
				}
				replaceWithValue(&fu, in, c)
				folded++
			}
		}
		fu.done()
	}
	return marked, folded
}

// globalDCE removes internal functions that are never called and globals
// that are never referenced.
func globalDCE(m *ir.Module) (int, int) {
	usedFn := map[string]bool{"main": true}
	usedG := map[*ir.Global]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					usedFn[in.Callee] = true
				}
				for _, op := range in.Ops {
					if g, ok := op.(*ir.Global); ok {
						usedG[g] = true
					}
				}
			}
		}
	}
	nf := 0
	kept := m.Funcs[:0]
	for _, f := range m.Funcs {
		if !f.IsDecl && f.HasAttr(ir.AttrInternal) && !usedFn[f.Name] {
			nf++
			continue
		}
		kept = append(kept, f)
	}
	m.Funcs = kept
	ng := 0
	keptG := m.Globals[:0]
	for _, g := range m.Globals {
		if !usedG[g] {
			ng++
			continue
		}
		keptG = append(keptG, g)
	}
	m.Globals = keptG
	return nf, ng
}

// deadArgElim removes parameters of internal functions that no instruction
// reads, rewriting all call sites.
func deadArgElim(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		if f.IsDecl || !f.HasAttr(ir.AttrInternal) || len(f.Params) == 0 {
			continue
		}
		used := make([]bool, len(f.Params))
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, op := range in.Ops {
					if p, ok := op.(*ir.Param); ok {
						for pi, fp := range f.Params {
							if fp == p {
								used[pi] = true
							}
						}
					}
				}
			}
		}
		var keepIdx []int
		for pi, u := range used {
			if u {
				keepIdx = append(keepIdx, pi)
			}
		}
		if len(keepIdx) == len(f.Params) {
			continue
		}
		removed := len(f.Params) - len(keepIdx)
		newParams := make([]*ir.Param, len(keepIdx))
		for i, pi := range keepIdx {
			newParams[i] = f.Params[pi]
			newParams[i].Index = i
		}
		f.Params = newParams
		// Rewrite every call site.
		for _, g := range m.Funcs {
			for _, b := range g.Blocks {
				for _, in := range b.Instrs {
					if in.Op != ir.OpCall || in.Callee != f.Name {
						continue
					}
					newOps := make([]ir.Value, 0, len(keepIdx))
					for _, pi := range keepIdx {
						if pi < len(in.Ops) {
							newOps = append(newOps, in.Ops[pi])
						}
					}
					in.Ops = newOps
				}
			}
		}
		n += removed
	}
	return n
}

// promoteArguments rewrites pointer parameters that are only loaded in the
// callee's entry block into by-value parameters.
func promoteArguments(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		if f.IsDecl || !f.HasAttr(ir.AttrInternal) {
			continue
		}
		fu := funcUses{f: f}
		for pi, p := range f.Params {
			if p.Ty != ir.PtrT {
				continue
			}
			// Every use must be a direct load, at least one in the entry
			// block (so the load is safe to hoist to call sites).
			var loads []*ir.Instr
			ok := true
			entryLoad := false
			for _, x := range fu.get().Of(p) {
				in := x.User
				if in.Op == ir.OpLoad && x.Slot == 0 && !in.Ty.IsVector() {
					loads = append(loads, in)
					if in.Parent() == f.Entry() {
						entryLoad = true
					}
				} else {
					ok = false
				}
			}
			if !ok || len(loads) == 0 || !entryLoad {
				continue
			}
			loadTy := loads[0].Ty
			same := true
			for _, l := range loads {
				if l.Ty != loadTy {
					same = false
				}
			}
			if !same {
				continue
			}
			// Callee may be written through elsewhere between loads; only
			// promote when the function body contains no stores or unknown
			// calls that could change *p.
			hazard := false
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpStore && mayAlias(in.Ops[1], p) {
						hazard = true
					}
					if in.Op == ir.OpCall && !ir.IsBuiltin(in.Callee) {
						hazard = true
					}
				}
			}
			if hazard {
				continue
			}
			// Rewrite callee: param becomes the value.
			p.Ty = loadTy
			for _, l := range loads {
				replaceNow(&fu, l, p)
			}
			// Rewrite call sites: load before the call.
			for _, g := range m.Funcs {
				for _, b := range g.Blocks {
					for _, in := range b.Instrs {
						if in.Op != ir.OpCall || in.Callee != f.Name || pi >= len(in.Ops) {
							continue
						}
						ld := &ir.Instr{Op: ir.OpLoad, Ty: loadTy, Ops: []ir.Value{in.Ops[pi]}}
						b.InsertBefore(b.IndexOf(in), ld)
						in.Ops[pi] = ld
					}
				}
			}
			fu.drop() // a self-recursive call site was rewritten directly
			n++
		}
		fu.done()
	}
	return n
}

// mergeConstGlobals deduplicates constant globals with identical contents.
func mergeConstGlobals(m *ir.Module) int {
	n := 0
	seen := map[string]*ir.Global{}
	replace := map[*ir.Global]*ir.Global{}
	// The key is a strconv-built injective encoding of (elem type, size,
	// init contents): this pass runs in every -O3 pipeline, and a
	// reflect-driven Sprintf per global showed up as a top allocation site.
	var keyBuf []byte
	for _, g := range m.Globals {
		if !g.Const {
			continue
		}
		b := keyBuf[:0]
		b = strconv.AppendInt(b, int64(g.Elem.Kind), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(g.Elem.Lanes), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(g.Size), 10)
		b = append(b, '|')
		for _, v := range g.InitI {
			b = strconv.AppendInt(b, v, 10)
			b = append(b, ',')
		}
		b = append(b, '|')
		for _, v := range g.InitF {
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
			b = append(b, ',')
		}
		keyBuf = b
		if prev, ok := seen[string(b)]; ok {
			replace[g] = prev
			n++
		} else {
			seen[string(b)] = g
		}
	}
	if len(replace) == 0 {
		return 0
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for oi, op := range in.Ops {
					if g, ok := op.(*ir.Global); ok {
						if r, dup := replace[g]; dup {
							in.Ops[oi] = r
						}
					}
				}
			}
		}
	}
	kept := m.Globals[:0]
	for _, g := range m.Globals {
		if _, dup := replace[g]; !dup {
			kept = append(kept, g)
		}
	}
	m.Globals = kept
	return n
}

// stripDeadPrototypes removes declarations that no call references.
func stripDeadPrototypes(m *ir.Module) int {
	used := map[string]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					used[in.Callee] = true
				}
			}
		}
	}
	n := 0
	kept := m.Funcs[:0]
	for _, f := range m.Funcs {
		if f.IsDecl && !used[f.Name] {
			n++
			continue
		}
		kept = append(kept, f)
	}
	m.Funcs = kept
	return n
}

// mergeFunctions replaces calls to structurally identical internal functions
// with calls to a single representative and deletes the duplicates.
//
// A merge needs two eligible functions with equal keys, and equal keys imply
// equal shapes (mergeShape). The key loop writes nothing before its first
// merge, so when no two eligible functions share a shape it would return 0
// with the module untouched: that case renders no key at all.
func mergeFunctions(m *ir.Module) int {
	sc := getScratch()
	defer putScratch(sc)
	if !sc.keys.shapesCollide(m) {
		return 0
	}
	return mergeByKey(m, sc)
}

// mergeEligible reports whether mergeFunctions may merge f: an internal
// definition other than main.
func mergeEligible(f *ir.Function) bool {
	return !f.IsDecl && f.Name != "main" && f.HasAttr(ir.AttrInternal)
}

// mergeByKey is mergeFunctions without its shape pre-test: every eligible
// function's key is rendered, and each one whose key an earlier function
// already has is merged into that one.
func mergeByKey(m *ir.Module, sc *scratch) int {
	n := 0
	byKey := map[string]*ir.Function{}
	var dead []string
	for _, f := range m.Funcs {
		if !mergeEligible(f) {
			continue
		}
		key := sc.keys.render(f)
		if rep, ok := byKey[string(key)]; ok {
			// Retarget all calls f -> rep.
			for _, g := range m.Funcs {
				for _, b := range g.Blocks {
					for _, in := range b.Instrs {
						if in.Op == ir.OpCall && in.Callee == f.Name {
							in.Callee = rep.Name
						}
					}
				}
			}
			dead = append(dead, f.Name)
			n++
		} else {
			byKey[string(key)] = f
		}
	}
	for _, name := range dead {
		m.RemoveFunc(name)
	}
	return n
}

// mergeKeyer renders mergeFunctions' key, a linkage-name-independent
// structural summary of a function: the signature, then per block its number
// and per instruction its number, opcode, type, predicate, callee, alloca
// element type and count, flags, operands (a constant with its type),
// targets and switch cases. Parameters are numbered first, then instructions in block
// order, blocks by position; an operand or target outside the function
// reads as 0, and an object listed twice takes its last position. The buffer
// and the numbering tables live in the pooled pass scratch, so they are
// reused across functions and pass runs, and nothing is written to the IR
// (Instr.ID may be stale mid-sequence).
type mergeKeyer struct {
	buf    []byte
	ipos   map[*ir.Instr]int // block-order position
	bpos   map[*ir.Block]int // position in f.Blocks
	shapes []uint64          // shapesCollide's hashes, one per eligible function
}

// shapesCollide reports whether two functions mergeFunctions may merge have
// equal shape hashes. Equal shapes hash equally, so false proves that no two
// of them have equal keys; a hash collision only costs the key loop.
func (k *mergeKeyer) shapesCollide(m *ir.Module) bool {
	k.shapes = k.shapes[:0]
	for _, f := range m.Funcs {
		if !mergeEligible(f) {
			continue
		}
		h := mergeShape(f)
		if slices.Contains(k.shapes, h) {
			return true
		}
		k.shapes = append(k.shapes, h)
	}
	return false
}

// mergeShape hashes what f's key spells out before any name, number or
// opcode: the return and parameter types, the block count and each block's
// instruction count. The key renders a type by Type.String, which prints
// every Lanes <= 1 as the bare kind, so those hash as one lane. The counts
// are read off the key's delimiters: 'b' opens a block, ';' ends an
// instruction, and neither starts or ends anything inside an instruction (a
// symbol name holds no ';'). So equal keys have equal shapes.
func mergeShape(f *ir.Function) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	ty := func(t ir.Type) {
		lanes := t.Lanes
		if lanes <= 1 {
			lanes = 1
		}
		mix(uint64(t.Kind))
		mix(uint64(lanes))
	}
	ty(f.RetTy)
	mix(uint64(len(f.Params)))
	for _, p := range f.Params {
		ty(p.Ty)
	}
	mix(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		mix(uint64(len(b.Instrs)))
	}
	return h
}

// render returns f's key in the keyer's buffer, valid until the next call.
func (k *mergeKeyer) render(f *ir.Function) []byte {
	if k.ipos == nil {
		k.ipos, k.bpos = map[*ir.Instr]int{}, map[*ir.Block]int{}
	}
	clear(k.ipos)
	clear(k.bpos)
	n := 0
	for i, b := range f.Blocks {
		k.bpos[b] = i
		for _, in := range b.Instrs {
			k.ipos[in] = n
			n++
		}
	}

	np := len(f.Params)
	b := append(k.buf[:0], f.RetTy.String()...)
	b = append(b, '(')
	for _, p := range f.Params {
		b = append(b, p.Ty.String()...)
		b = append(b, ',')
	}
	b = append(b, ')')
	for _, blk := range f.Blocks {
		b = append(b, 'b')
		b = strconv.AppendInt(b, int64(k.bpos[blk]), 10)
		b = append(b, ':')
		for _, in := range blk.Instrs {
			b = strconv.AppendInt(b, int64(np+k.ipos[in]), 10)
			b = append(b, '=')
			b = append(b, in.Op.String()...)
			b = append(b, '/')
			b = append(b, in.Ty.String()...)
			b = append(b, '/')
			b = append(b, in.Pred.String()...)
			b = append(b, '/')
			b = append(b, in.Callee...)
			b = append(b, '/')
			b = append(b, in.AllocTy.String()...)
			b = append(b, '*')
			b = strconv.AppendInt(b, int64(in.NAlloc), 10)
			b = append(b, '/')
			b = strconv.AppendUint(b, uint64(in.Flags), 10)
			for _, op := range in.Ops {
				switch t := op.(type) {
				case *ir.Const:
					b = append(b, " c"...)
					b = append(b, t.Ty.String()...)
					b = append(b, ':')
					b = strconv.AppendInt(b, t.I, 10)
					b = append(b, ':')
					b = strconv.AppendFloat(b, t.F, 'g', -1, 64)
				case *ir.Global:
					b = append(b, " @"...)
					b = append(b, t.Name...)
				default:
					b = append(b, " v"...)
					b = strconv.AppendInt(b, int64(k.valueNumber(f, op)), 10)
				}
			}
			for _, tb := range in.Blocks {
				b = append(b, " b"...)
				b = strconv.AppendInt(b, int64(k.bpos[tb]), 10)
			}
			for _, c := range in.Cases {
				b = append(b, " k"...)
				b = strconv.AppendInt(b, c, 10)
			}
			b = append(b, ';')
		}
	}
	k.buf = b
	return b
}

// valueNumber numbers an operand that is neither a constant nor a global:
// a parameter of f by its position, an instruction of f after the
// parameters, anything else 0.
func (k *mergeKeyer) valueNumber(f *ir.Function, v ir.Value) int {
	switch t := v.(type) {
	case *ir.Instr:
		if pos, ok := k.ipos[t]; ok {
			return len(f.Params) + pos
		}
	case *ir.Param:
		for i := len(f.Params) - 1; i >= 0; i-- {
			if f.Params[i] == t {
				return i
			}
		}
	}
	return 0
}
