package passes

import (
	"repro/internal/ir"
)

// The passes whose scans the block edit log changed, as they were when every
// edit shifted the block at once: InsertBefore / RemoveAt after an IndexOf,
// a map per mark set and per substitution, and interface-keyed expression
// tables. perEditPasses maps each affected pass name to that version of its
// body; TestPerEditOracle holds the pass pipeline to it.

// replaceWithValuePerEdit replaces all uses of in with v and deletes in.
func replaceWithValuePerEdit(fu *funcUses, in *ir.Instr, v ir.Value) {
	u := fu.get()
	u.ReplaceAll(in, v)
	if b := in.Parent(); b != nil {
		if idx := b.IndexOf(in); idx >= 0 {
			b.RemoveAt(idx)
			u.Remove(in)
		}
	}
}

// runCSEPerEdit performs value numbering and returns (#instructions, #loads) CSE'd.
func runCSEPerEdit(m *ir.Module, f *ir.Function, cfg cseConfig) (int, int) {
	nInstr, nLoad := 0, 0
	fu := funcUses{f: f}
	defer fu.done()
	// pureKeyPerEdit canonicalizes commutative operands via ID comparison; refresh
	// IDs so matching is a pure function of structure, not of ID history.
	f.Renumber()
	var cfgG *ir.CFG
	var dt *ir.DomTree
	if cfg.global {
		cfgG, dt = ir.DomOf(f)
	}

	// Pure-expression facts are immutable SSA values: a block sees those of
	// the blocks that dominate it (its own only, when block-local). One table
	// serves the whole walk — the keys a block adds are logged and deleted
	// again when its dominator subtree is done — instead of a copy per block,
	// and it is pooled scratch, so it is not re-grown per function either.
	var added []instrKeyPerEdit
	exprs := map[instrKeyPerEdit]*ir.Instr{}
	addExpr := func(k instrKeyPerEdit, in *ir.Instr) {
		added = append(added, k)
		exprs[k] = in
	}

	// visit value-numbers b and then, when dominator-scoped, its dominator-
	// tree children in function block order. Load facts describe memory,
	// which is only unchanged when b's sole CFG predecessor is the block
	// whose end-state (inherited) it is handed — at joins and loop headers
	// (back-edge preds) the inherited memory facts must be dropped.
	var visit func(b *ir.Block, inherited map[loadKeyPerEdit]*ir.Instr)
	visit = func(b *ir.Block, inherited map[loadKeyPerEdit]*ir.Instr) {
		mark := len(added)
		loads := make(map[loadKeyPerEdit]*ir.Instr)
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
				k := loadKeyPerEdit{ptr: in.Ops[0], ty: in.Ty}
				if prev, ok := loads[k]; ok {
					replaceWithValuePerEdit(&fu, in, prev)
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
					if k, ok := pureKeyPerEdit(in); ok {
						if prev, ok2 := exprs[k]; ok2 {
							replaceWithValuePerEdit(&fu, in, prev)
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
					loads = make(map[loadKeyPerEdit]*ir.Instr)

				}
			case isPure(m, in) && !mayTrap(in):
				if k, ok := pureKeyPerEdit(in); ok {
					prev, ok2 := exprs[k]
					if ok2 && prev != in {
						replaceWithValuePerEdit(&fu, in, prev)
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
						replaceWithValuePerEdit(&fu, in, other)
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
		for _, k := range added[mark:] {
			delete(exprs, k)
		}
		added = added[:mark]
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

type loadKeyPerEdit struct {
	ptr ir.Value
	ty  ir.Type
}

// removeDeadInstrsPerEdit deletes unused side-effect-free instructions; when fixpoint
// is set it iterates until no more can be removed. Returns the removal count.
func removeDeadInstrsPerEdit(m *ir.Module, f *ir.Function, fixpoint bool) int {
	total := 0
	used := map[*ir.Instr]bool{}
	dead := func(in *ir.Instr) bool {
		if in.IsTerminator() || in.Op == ir.OpStore || used[in] {
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
		// Mark the used instructions once per round; only an instruction can
		// be removed, so constants, globals and params are never looked up.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, op := range in.Ops {
					if d, ok := op.(*ir.Instr); ok {
						used[d] = true
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
		clear(used) // handed out empty, cleared again on release
	}
	return total
}

// pureKeyPerEdit returns the value-numbering key of a pure instruction and whether
// the instruction is keyable.
func pureKeyPerEdit(in *ir.Instr) (instrKeyPerEdit, bool) {
	k := instrKeyPerEdit{op: in.Op, ty: in.Ty, pred: in.Pred, callee: in.Callee}
	switch len(in.Ops) {
	case 0:
		return k, in.Op != ir.OpAlloca && in.Op != ir.OpPhi
	case 1:
		k.a = canonValPerEdit(in.Ops[0])
	case 2:
		x, y := in.Ops[0], in.Ops[1]
		if in.Op.IsCommutative() && valueLess(y, x) {
			x, y = y, x
		}
		k.a, k.b = canonValPerEdit(x), canonValPerEdit(y)
	case 3:
		k.a, k.b, k.extra = canonValPerEdit(in.Ops[0]), canonValPerEdit(in.Ops[1]), canonValPerEdit(in.Ops[2])
	default:
		return k, false
	}
	return k, true
}

// canonValPerEdit maps a value to its CSE identity.
func canonValPerEdit(v ir.Value) any {
	if c, ok := v.(*ir.Const); ok {
		return constKey{c.Ty, c.I, c.F}
	}
	return v
}

// instrKeyPerEdit builds a structural hash key for CSE/GVN: opcode, type, predicate,
// callee and operand identities (commutative operands canonically ordered).
// Constants are keyed by value, not pointer, so structurally-equal constants
// value-number together.
type instrKeyPerEdit struct {
	op     ir.Op
	ty     ir.Type
	pred   ir.CmpPred
	callee string
	a, b   any
	extra  any
}

// runCombinePerEdit applies peephole rewrites until fixpoint (bounded), returning
// the number of combined instructions.
func runCombinePerEdit(m *ir.Module, f *ir.Function, cfg combineConfig) int {
	combined := 0
	fu := funcUses{f: f}
	defer fu.done()
	for round := 0; round < cfg.maxRounds; round++ {
		changed := 0
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if in.IsTerminator() || in.Op == ir.OpPhi || in.Op == ir.OpStore ||
					in.Op == ir.OpCall || in.Op == ir.OpAlloca || in.Op == ir.OpLoad {
					continue
				}
				if cfg.fold {
					if c := foldConst(in); c != nil {
						replaceWithValuePerEdit(&fu, in, c)
						i--
						changed++
						continue
					}
					if v := simplifyIdentity(in); v != nil {
						replaceWithValuePerEdit(&fu, in, v)
						i--
						changed++
						continue
					}
				}
				if cfg.strength && strengthReduce(&fu, in) {
					changed++
					continue
				}
				if cfg.constReass && reassocConst(&fu, in) {
					changed++
					continue
				}
				if cfg.widen && widenExtChainPerEdit(&fu, b, i) {
					changed++
					continue
				}
			}
		}
		combined += changed
		if changed == 0 {
			break
		}
	}
	if combined > 0 {
		// Like LLVM's instcombine, erase instructions orphaned by rewrites.
		fu.done()
		removeDeadInstrsPerEdit(m, f, true)
	}
	return combined
}

// widenExtChainPerEdit canonicalises arithmetic on sign-extended narrow values to
// the widest observed destination type. This reproduces the paper's Fig 5.1c
// interaction: `sext i16->i32; mul i32; sext i32->i64; add i64` becomes
// `sext i16->i64; mul i64 (widened); add i64`, and the FlagWidened marker
// later defeats SLP's profitability check on the reduction.
func widenExtChainPerEdit(fu *funcUses, b *ir.Block, idx int) bool {
	in := b.Instrs[idx]
	// Pattern 1: sext(sext(x)) -> single widest sext.
	if in.Op == ir.OpSExt {
		if inner, ok := in.Ops[0].(*ir.Instr); ok && inner.Op == ir.OpSExt {
			fu.set(in, 0, inner.Ops[0])
			in.Flags |= ir.FlagWidened
			return true
		}
		// Pattern 2: sext(binop(a,b)) with single use -> binop(sext a, sext b)
		// in the wider type (profitable per instcombine's local canonical
		// form; globally it can block SLP).
		// The rewrite is only sound when the narrow arithmetic provably does
		// not overflow (FlagNoWrap, the nsw analogue emitted by the frontend
		// for C signed arithmetic).
		if inner, ok := in.Ops[0].(*ir.Instr); ok &&
			inner.Op.IsIntBinary() && !inner.Ty.IsVector() &&
			inner.Flags&ir.FlagNoWrap != 0 &&
			(inner.Op == ir.OpAdd || inner.Op == ir.OpMul || inner.Op == ir.OpSub) &&
			inner.Parent() == b && fu.get().Count(inner) == 1 {
			innerIdx := b.IndexOf(inner)
			if innerIdx < 0 {
				return false
			}
			wide := in.Ty
			mk := func(v ir.Value) ir.Value {
				if c, ok := v.(*ir.Const); ok {
					return ir.ConstInt(wide, c.I)
				}
				se := &ir.Instr{Op: ir.OpSExt, Ty: wide, Ops: []ir.Value{v}, Flags: ir.FlagWidened}
				b.InsertBefore(innerIdx, se)
				fu.inserted(se)
				innerIdx++
				return se
			}
			a := mk(inner.Ops[0])
			c := mk(inner.Ops[1])
			// Mutate the sext instruction into the widened binop so existing
			// uses remain valid.
			in.Op = inner.Op
			fu.setOps(in, []ir.Value{a, c})
			in.Flags |= ir.FlagWidened
			// Remove the narrow binop.
			b.RemoveAt(b.IndexOf(inner))
			fu.removed(inner)
			return true
		}
	}
	return false
}

// runInstSimplifyPerEdit performs only fold-to-existing-value rewrites.
func runInstSimplifyPerEdit(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.IsTerminator() || in.Op == ir.OpPhi || in.Op.HasSideEffects() ||
				in.Op == ir.OpAlloca || in.Op == ir.OpLoad {
				continue
			}
			if c := foldConst(in); c != nil {
				replaceWithValuePerEdit(&fu, in, c)
				i--
				n++
				continue
			}
			if v := simplifyIdentity(in); v != nil {
				replaceWithValuePerEdit(&fu, in, v)
				i--
				n++
			}
		}
	}
	return n
}

// aggressiveDCEPerEdit marks live roots (side-effecting and control instructions)
// and transitively their operands; everything else — including cyclic dead
// phi webs that plain DCE cannot remove — is deleted.
func aggressiveDCEPerEdit(m *ir.Module, f *ir.Function) int {
	live := map[*ir.Instr]bool{}
	var work []*ir.Instr
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

// foldDeadBitsPerEdit applies bit-level absorptions: and x,0 -> 0; or x,-1 -> -1;
// trunc of a value whose low bits come through an and-mask wide enough, etc.
func foldDeadBitsPerEdit(f *ir.Function) int {
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
					replaceWithValuePerEdit(&fu, in, ir.ConstInt(in.Ty, 0))
					i--
					n++
				}
			case ir.OpOr:
				if c, ok := constOp(in, 1); ok && allOnes(c, in.Ty.Kind) {
					replaceWithValuePerEdit(&fu, in, ir.ConstInt(in.Ty, -1))
					i--
					n++
				}
			case ir.OpTrunc:
				// trunc(zext(x)) where widths round-trip -> x.
				if src, ok := in.Ops[0].(*ir.Instr); ok &&
					(src.Op == ir.OpZExt || src.Op == ir.OpSExt) &&
					src.Ops[0].Type() == in.Ty {
					replaceWithValuePerEdit(&fu, in, src.Ops[0])
					i--
					n++
				}
			}
		}
	}
	return n
}

// reassociatePerEdit collects single-use chains of one associative operation, sorts
// leaves by rank (params/instructions before constants) and rebuilds a
// left-leaning chain with constants folded, exposing CSE opportunities.
func reassociatePerEdit(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	// valueLess compares instruction IDs; refresh them first so the result
	// is a pure function of module structure, not of ID history (IDs go
	// stale as passes insert instructions, and snapshot clones renumber).
	f.Renumber()
	// Precompute which instructions feed a same-op instruction (non-roots).
	fed := make(map[*ir.Instr]bool)
	for _, b := range f.Blocks {
		for _, u := range b.Instrs {
			if !u.Op.IsAssociative() {
				continue
			}
			for _, op := range u.Ops {
				if d, ok := op.(*ir.Instr); ok && d.Op == u.Op {
					fed[d] = true
				}
			}
		}
	}
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if !in.Op.IsAssociative() || in.Ty.IsVector() || fed[in] {
				continue
			}
			var leaves []ir.Value
			var chain []*ir.Instr
			var collect func(v ir.Value) bool
			collect = func(v ir.Value) bool {
				d, ok := v.(*ir.Instr)
				if ok && d.Op == in.Op && d.Parent() == b && fu.get().Count(d) == 1 {
					chain = append(chain, d)
					return collect(d.Ops[0]) && collect(d.Ops[1])
				}
				leaves = append(leaves, v)
				return true
			}
			if !collect(in.Ops[0]) || !collect(in.Ops[1]) {
				continue
			}
			if len(chain) == 0 || len(leaves) < 3 {
				continue
			}
			// Partition: non-constants sorted by stable rank, constants folded.
			var vals []ir.Value
			var accC *ir.Const
			for _, l := range leaves {
				if c, ok := l.(*ir.Const); ok {
					if accC == nil {
						accC = c
					} else {
						tmp := &ir.Instr{Op: in.Op, Ty: in.Ty, Ops: []ir.Value{accC, c}}
						if fc := foldConst(tmp); fc != nil {
							accC = fc
						} else {
							vals = append(vals, c)
						}
					}
					continue
				}
				vals = append(vals, l)
			}
			// Stable sort by rank for canonical pairing.
			for x := 1; x < len(vals); x++ {
				for y := x; y > 0 && valueLess(vals[y], vals[y-1]); y-- {
					vals[y], vals[y-1] = vals[y-1], vals[y]
				}
			}
			if accC != nil && !identityConst(in.Op, accC) {
				vals = append(vals, accC)
			}
			if len(vals) == 0 {
				continue
			}
			// Rebuild left-leaning chain just before `in`.
			pos := b.IndexOf(in)
			cur := vals[0]
			for vi := 1; vi < len(vals)-1; vi++ {
				ni := &ir.Instr{Op: in.Op, Ty: in.Ty, Ops: []ir.Value{cur, vals[vi]}}
				b.InsertBefore(pos, ni)
				fu.inserted(ni)
				pos++
				cur = ni
			}
			// Mutate root in place with the final pair.
			last := vals[len(vals)-1]
			if len(vals) == 1 {
				replaceWithValuePerEdit(&fu, in, vals[0])
				i--
				n++
				continue
			}
			fu.setOps(in, []ir.Value{cur, last})
			// Old chain instructions become dead; best-effort removal.
			for _, c := range chain {
				if !fu.get().Has(c) {
					if idx := c.Parent().IndexOf(c); idx >= 0 {
						c.Parent().RemoveAt(idx)
						fu.removed(c)
						if c.Parent() == b {
							i = b.IndexOf(in)
						}
					}
				}
			}
			n++
		}
	}
	return n
}

// scalarizeVectorsPerEdit splits vector arithmetic into per-lane scalar operations
// (a genuine deoptimising direction in the search space, as in LLVM's
// scalarizer pass).
func scalarizeVectorsPerEdit(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if !in.Op.IsBinary() || !in.Ty.IsVector() {
				continue
			}
			lanes := in.Ty.Lanes
			sc := in.Ty.Scalar()
			pos := i
			var parts []ir.Value
			for l := 0; l < lanes; l++ {
				ea := &ir.Instr{Op: ir.OpExtractElement, Ty: sc, Ops: []ir.Value{in.Ops[0], ir.ConstInt(ir.I64T, int64(l))}}
				eb := &ir.Instr{Op: ir.OpExtractElement, Ty: sc, Ops: []ir.Value{in.Ops[1], ir.ConstInt(ir.I64T, int64(l))}}
				op := &ir.Instr{Op: in.Op, Ty: sc, Ops: []ir.Value{ea, eb}}
				b.InsertBefore(pos, ea)
				b.InsertBefore(pos+1, eb)
				b.InsertBefore(pos+2, op)
				pos += 3
				parts = append(parts, op)
			}
			// Rebuild the vector via insertelement chain; mutate `in` into the
			// final insert so uses remain valid.
			var vec ir.Value = &ir.Instr{Op: ir.OpBroadcast, Ty: in.Ty, Ops: []ir.Value{zeroValue(sc)}}
			b.InsertBefore(pos, vec.(*ir.Instr))
			pos++
			for l := 0; l < lanes-1; l++ {
				ins := &ir.Instr{Op: ir.OpInsertElement, Ty: in.Ty,
					Ops: []ir.Value{vec, parts[l], ir.ConstInt(ir.I64T, int64(l))}}
				b.InsertBefore(pos, ins)
				pos++
				vec = ins
			}
			in.Op = ir.OpInsertElement
			in.Ops = []ir.Value{vec, parts[lanes-1], ir.ConstInt(ir.I64T, int64(lanes-1))}
			i = pos
			n++
		}
	}
	return n
}

// expandReductionsPerEdit lowers vecreduce.add into an extract+add chain.
func expandReductionsPerEdit(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpVecReduceAdd {
				continue
			}
			src := in.Ops[0]
			lanes := src.Type().Lanes
			sc := in.Ty
			addOp := ir.OpAdd
			if sc.Kind.IsFloat() {
				addOp = ir.OpFAdd
			}
			pos := i
			var acc ir.Value
			for l := 0; l < lanes; l++ {
				e := &ir.Instr{Op: ir.OpExtractElement, Ty: sc, Ops: []ir.Value{src, ir.ConstInt(ir.I64T, int64(l))}}
				b.InsertBefore(pos, e)
				pos++
				if acc == nil {
					acc = e
					continue
				}
				if l == lanes-1 {
					break
				}
				a := &ir.Instr{Op: addOp, Ty: sc, Ops: []ir.Value{acc, e}}
				b.InsertBefore(pos, a)
				pos++
				acc = a
			}
			lastE := b.Instrs[pos-1]
			in.Op = addOp
			in.Ops = []ir.Value{acc, lastE}
			i = pos
			n++
		}
	}
	return n
}

// forwardStoreToLoadPerEdit replaces a load with the most recent store to the same
// address within the block when nothing in between may clobber it.
func forwardStoreToLoadPerEdit(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpLoad || in.Ty.IsVector() {
				continue
			}
			for j := i - 1; j >= 0; j-- {
				p := b.Instrs[j]
				if p.Op == ir.OpStore {
					if p.Ops[1] == in.Ops[0] && p.Ops[0].Type() == in.Ty {
						replaceWithValuePerEdit(&fu, in, p.Ops[0])
						i--
						n++
						break
					}
					if mayAlias(p.Ops[1], in.Ops[0]) {
						break
					}
					continue
				}
				if p.Op == ir.OpCall && !(ir.IsBuiltin(p.Callee) && !ir.BuiltinHasSideEffects(p.Callee)) {
					break
				}
			}
		}
	}
	return n
}

// inlineIntBuiltinsPerEdit expands sim.abs/min/max calls into compare+select.
func inlineIntBuiltinsPerEdit(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpCall {
				continue
			}
			switch in.Callee {
			case "sim.abs.i64":
				x := in.Ops[0]
				neg := &ir.Instr{Op: ir.OpSub, Ty: ir.I64T, Ops: []ir.Value{ir.ConstInt(ir.I64T, 0), x}}
				cmp := &ir.Instr{Op: ir.OpICmp, Ty: ir.I1T, Pred: ir.CmpSLT, Ops: []ir.Value{x, ir.ConstInt(ir.I64T, 0)}}
				b.InsertBefore(i, neg)
				b.InsertBefore(i+1, cmp)
				in.Op = ir.OpSelect
				in.Ty = ir.I64T
				in.Callee = ""
				in.Ops = []ir.Value{cmp, neg, x}
				n++
			case "sim.min.i64", "sim.max.i64":
				pred := ir.CmpSLT
				if in.Callee == "sim.max.i64" {
					pred = ir.CmpSGT
				}
				a, c := in.Ops[0], in.Ops[1]
				cmp := &ir.Instr{Op: ir.OpICmp, Ty: ir.I1T, Pred: pred, Ops: []ir.Value{a, c}}
				b.InsertBefore(i, cmp)
				in.Op = ir.OpSelect
				in.Ty = ir.I64T
				in.Callee = ""
				in.Ops = []ir.Value{cmp, a, c}
				n++
			}
		}
	}
	return n
}

// runSCCPPerEdit folds constants, resolves phis whose live incoming values agree,
// and rewrites conditional branches on constants into unconditional jumps
// (leaving unreachable-block removal to simplifycfg, as LLVM does).
func runSCCPPerEdit(m *ir.Module, f *ir.Function) int {
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
						replaceWithValuePerEdit(&fu, in, uniq)
						i--
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
						replaceWithValuePerEdit(&fu, in, c)
						i--
						changed++
					}
				}
			}
		}
		n += changed
		if changed == 0 {
			break
		}
	}
	return n
}

// combineVectorOpsPerEdit folds extract(insert(v,x,i),i) -> x and
// extract(broadcast(x), i) -> x.
func combineVectorOpsPerEdit(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpExtractElement {
				continue
			}
			src, ok := in.Ops[0].(*ir.Instr)
			if !ok {
				continue
			}
			switch src.Op {
			case ir.OpBroadcast:
				replaceWithValuePerEdit(&fu, in, src.Ops[0])
				i--
				n++
			case ir.OpInsertElement:
				li, okL := in.ConstOperand(1)
				si, okS := src.ConstOperand(2)
				if okL && okS && li.I == si.I {
					replaceWithValuePerEdit(&fu, in, src.Ops[1])
					i--
					n++
				}
			}
		}
	}
	return n
}

// unrollLoopsPerEdit fully unrolls single-block loops with constant trip count at
// most fullTripMax and body size at most bodyMax, and partially unrolls (by
// `factor`) rotated single-block loops with divisible constant trips.
func unrollLoopsPerEdit(f *ir.Function, fullTripMax int64, bodyMax, factor int) (int, int) {
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
			if exitB == nil || len(exitB.Phis()) > 0 {
				// Exit phis (from rotation) reference in-loop values; the
				// full unroll handles them by rewriting incomings below, so
				// allow them only on the partial path where block identity
				// is preserved. For full unroll we rewrite them too.
				if exitB == nil {
					continue
				}
			}
			body := len(b.Instrs) - len(b.Phis())
			if trip <= fullTripMax && body <= bodyMax {
				if fullyUnrollPerEdit(f, cfg, l, iv, trip, exitB, &fu) {
					full++
					changed = true
					break
				}
			}
			if factor > 1 && trip%int64(factor) == 0 && trip > int64(factor) && body*factor <= 160 {
				if partiallyUnrollFrozen(cfg, l, iv, factor, &fu) {
					partial++
					changed = true
					break
				}
			}
		}
	}
	return full, partial
}

// cloneBody clones the non-phi, non-terminator instructions of b with
// substitution, appending them before dst's terminator region; returns the
// value map extension.
func cloneBodyIntoPerEdit(dst *ir.Block, insertAt int, b *ir.Block, skip map[*ir.Instr]bool, sub loopSub) (int, loopSub) {
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi || in.IsTerminator() || skip[in] {
			continue
		}
		c := &ir.Instr{Op: in.Op, Ty: in.Ty, Pred: in.Pred, Callee: in.Callee,
			AllocTy: in.AllocTy, NAlloc: in.NAlloc, Flags: in.Flags}
		for _, op := range in.Ops {
			c.Ops = append(c.Ops, sub.get(op))
		}
		dst.InsertBefore(insertAt, c)
		insertAt++
		sub[in] = c
	}
	return insertAt, sub
}

// fullyUnrollPerEdit replaces a single-block counted loop with trip straight-line
// copies of its body. It leaves fu coherent when it declines and without an
// index when it unrolls.
func fullyUnrollPerEdit(f *ir.Function, cfg *ir.CFG, l *ir.Loop, iv *ir.CanonicalIV, trip int64, exitB *ir.Block, fu *funcUses) bool {
	b := l.Header
	phis := b.Phis()
	initOf := make(map[*ir.Instr]ir.Value)
	nextOf := make(map[*ir.Instr]ir.Value)
	for _, p := range phis {
		if len(p.Ops) != 2 {
			return false
		}
		for i, fb := range p.Blocks {
			if l.Contains(fb) {
				nextOf[p] = p.Ops[i]
			} else {
				initOf[p] = p.Ops[i]
			}
		}
		if initOf[p] == nil || nextOf[p] == nil {
			return false
		}
	}
	// Values defined in the loop and used outside (directly or via exit
	// phis) must be remappable to last-iteration clones; collect them.
	term := b.Term()

	// Build the straight-line body in a fresh block.
	nb := &ir.Block{Name: b.Name + "_unr"}
	ir.AttachBlock(nb, f)
	cur := loopSub{}
	for _, p := range phis {
		cur[p] = initOf[p]
	}
	skip := map[*ir.Instr]bool{}
	if iv.Cmp != nil {
		skip[iv.Cmp] = true
	}
	insertAt := 0
	var last loopSub
	nb.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{exitB}})
	for k := int64(0); k < trip; k++ {
		iterSub := loopSub{}
		for v, s := range cur {
			iterSub[v] = s
		}
		insertAt, iterSub = cloneBodyIntoPerEdit(nb, insertAt, b, skip, iterSub)
		nextCur := loopSub{}
		for _, p := range phis {
			nextCur[p] = iterSub.get(nextOf[p])
		}
		cur = nextCur
		last = iterSub
	}

	// Rewrite uses elsewhere: loop instrs -> last clones; phis -> final value.
	// nb is not in f.Blocks yet, so the function — and the index — still are
	// as they were when the caller queried it.
	outsideB := func(x ir.Use) bool { return x.User.Parent() != b }
	remapOutside := func(old ir.Value, new ir.Value) {
		fu.setAll(fu.collect(old, outsideB), new)
	}
	for _, p := range phis {
		remapOutside(p, cur[p])
	}
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi || in.IsTerminator() {
			continue
		}
		if nv, ok := last[in]; ok {
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
	_ = term
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

// promoteAllocasPerEdit rewrites promotable scalar allocas into SSA form: loads
// become uses of the reaching definition, stores become definitions, and phi
// nodes are inserted at join points (maximal SSA followed by trivial-phi
// elimination). It returns the number of promoted allocas and inserted phis.
//
// This is the engine behind mem2reg and the promotion half of sroa, and the
// single most enabling transformation in the pass space: instcombine, GVN and
// both vectorisers see through values only after promotion (§5.2).
func promoteAllocasPerEdit(f *ir.Function) (promoted, phis int) {
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

	cfg, dt := ir.DomOf(f)
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
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if del[in] {
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
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
				replaceWithValuePerEdit(&fu, phi, uniq)
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

// globalOptPerEdit marks never-stored globals constant and folds constant-index
// loads from them.
func globalOptPerEdit(m *ir.Module) (int, int) {
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
				replaceWithValuePerEdit(&fu, in, c)
				i--
				folded++
			}
		}
		fu.done()
	}
	return marked, folded
}

var perEditPasses = map[string]func(m *ir.Module, st Stats){
	"instcombine": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			n := runCombinePerEdit(m, f, combineConfig{
				fold: true, strength: true, widen: true, constReass: true,
				maxRounds: 8,
			})
			st.Add("instcombine.NumCombined", n)
		})
	},
	"aggressive-instcombine": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			n := runCombinePerEdit(m, f, combineConfig{
				fold: true, strength: true, widen: true, constReass: true,
				maxRounds: 16,
			})
			n += foldShiftRoundTrips(f)
			st.Add("aggressive-instcombine.NumCombined", n)
		})
	},
	"instsimplify": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("instsimplify.NumSimplified", runInstSimplifyPerEdit(f))
		})
	},
	"early-cse": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			ni, nl := runCSEPerEdit(m, f, cseConfig{loads: true})
			st.Add("early-cse.NumCSE", ni)
			st.Add("early-cse.NumCSELoad", nl)
		})
	},
	"early-cse-memssa": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			ni, nl := runCSEPerEdit(m, f, cseConfig{global: true, loads: true})
			st.Add("early-cse-memssa.NumCSE", ni)
			st.Add("early-cse-memssa.NumCSELoad", nl)
		})
	},
	"gvn": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			ni, nl := runCSEPerEdit(m, f, cseConfig{global: true, loads: true, calls: true})
			st.Add("gvn.NumGVNInstr", ni)
			st.Add("gvn.NumGVNLoad", nl)
		})
	},
	"newgvn": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			ni, nl := runCSEPerEdit(m, f, cseConfig{global: true, loads: true, calls: true, phiValues: true})
			st.Add("newgvn.NumGVNInstr", ni)
			st.Add("newgvn.NumGVNLoad", nl)
		})
	},
	"dce": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			n := removeDeadInstrsPerEdit(m, f, true)
			n += removeDeadAllocas(f)
			st.Add("dce.NumRemoved", n)
		})
	},
	"die": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("die.NumRemoved", removeDeadInstrsPerEdit(m, f, false))
		})
	},
	"adce": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("adce.NumRemoved", aggressiveDCEPerEdit(m, f))
		})
	},
	"bdce": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			n := foldDeadBitsPerEdit(f)
			n += removeDeadInstrsPerEdit(m, f, true)
			st.Add("bdce.NumRemoved", n)
		})
	},
	"globalopt": func(m *ir.Module, st Stats) {
		c, l := globalOptPerEdit(m)
		st.Add("globalopt.NumMarkedConst", c)
		st.Add("globalopt.NumLoadsFolded", l)
	},
	"loop-instsimplify": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			_, _, li := ir.LoopsOf(f)
			if len(li.Loops) > 0 {
				st.Add("loop-instsimplify.NumSimplified", runInstSimplifyPerEdit(f))
			}
		})
	},
	"mem2reg": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			p, ph := promoteAllocasPerEdit(f)
			st.Add("mem2reg.NumPromoted", p)
			st.Add("mem2reg.NumPHIInsert", ph)
		})
	},
	"sroa": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("sroa.NumReplaced", splitAggregates(f))
			p, ph := promoteAllocasPerEdit(f)
			st.Add("sroa.NumPromoted", p)
			st.Add("sroa.NumPHIInsert", ph)
		})
	},
	"reassociate": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("reassociate.NumReassoc", reassociatePerEdit(f))
		})
	},
	"nary-reassociate": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("nary-reassociate.NumCanon", canonicalizeCommutative(f))
		})
	},
	"partially-inline-libcalls": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("partially-inline-libcalls.NumInlined", inlineIntBuiltinsPerEdit(f))
		})
	},
	"scalarizer": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("scalarizer.NumScalarized", scalarizeVectorsPerEdit(f))
		})
	},
	"expand-reductions": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("expand-reductions.NumExpanded", expandReductionsPerEdit(f))
		})
	},
	"loop-load-elim": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("loop-load-elim.NumForwarded", forwardStoreToLoadPerEdit(f))
		})
	},
	"sccp": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("sccp.NumInstRemoved", runSCCPPerEdit(m, f))
		})
	},
	"ipsccp": func(m *ir.Module, st Stats) {
		st.Add("ipsccp.NumArgsReplaced", propagateConstArgs(m))
		forEachDefined(m, func(f *ir.Function) {
			st.Add("ipsccp.NumInstRemoved", runSCCPPerEdit(m, f))
		})
	},
	"loop-unroll": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			full, partial := unrollLoopsPerEdit(f, 16, 48, 4)
			st.Add("loop-unroll.NumCompletelyUnrolled", full)
			st.Add("loop-unroll.NumUnrolled", partial)
		})
	},
	"loop-unroll-full": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			full, _ := unrollLoopsPerEdit(f, 64, 96, 0)
			st.Add("loop-unroll-full.NumCompletelyUnrolled", full)
		})
	},
	"vector-combine": func(m *ir.Module, st Stats) {
		forEachDefined(m, func(f *ir.Function) {
			st.Add("vector-combine.NumCombined", combineVectorOpsPerEdit(f))
		})
	},
}
