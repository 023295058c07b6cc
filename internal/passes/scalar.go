package passes

import (
	"repro/internal/ir"
)

func init() {
	register("reassociate", "rank-based reassociation of associative chains",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("reassociate.NumReassoc", reassociate(f))
			})
		})

	register("nary-reassociate", "canonical commutative operand ordering",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("nary-reassociate.NumCanon", canonicalizeCommutative(f))
			})
		})

	register("tailcallelim", "turn self-recursive tail calls into loops",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("tailcallelim.NumEliminated", eliminateTailCalls(f))
			})
		})

	register("memcpyopt", "merge constant store runs into memset",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("memcpyopt.NumMemSet", storeRunsToMemset(f))
			})
		})

	register("sink", "sink computations into the arm that uses them",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("sink.NumSunk", sinkIntoArms(m, f))
			})
		})

	register("speculative-execution", "hoist cheap pure ops above branches",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("speculative-execution.NumSpeculated", speculateArms(m, f))
			})
		})

	register("slsr", "straight-line strength reduction",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("slsr.NumRewritten", straightLineSR(f))
			})
		})

	register("div-rem-pairs", "recompose rem from matching div",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("div-rem-pairs.NumRecomposed", divRemPairs(f))
			})
		})

	register("float2int", "demote int-valued float arithmetic to integers",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("float2int.NumConverted", floatToInt(f))
			})
		})

	register("partially-inline-libcalls", "expand abs/min/max builtins inline",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("partially-inline-libcalls.NumInlined", inlineIntBuiltins(f))
			})
		})

	register("separate-const-offset-from-gep", "split constant offsets out of GEPs",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("separate-const-offset-from-gep.NumSplit", splitGEPOffsets(f))
			})
		})

	register("scalarizer", "split vector operations into scalar lanes",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("scalarizer.NumScalarized", scalarizeVectors(f))
			})
		})

	register("expand-reductions", "lower vector reductions to extract chains",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("expand-reductions.NumExpanded", expandReductions(f))
			})
		})

	register("mergeicmps", "merge equality-compare chains into memcmp",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("mergeicmps.NumMerged", mergeICmpChains(f))
			})
		})

	register("callsite-splitting", "split calls with phi arguments per predecessor",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("callsite-splitting.NumSplit", splitCallSites(m, f))
			})
		})

	register("loop-load-elim", "forward stored values to in-loop loads",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-load-elim.NumForwarded", forwardStoreToLoad(f))
			})
		})
}

// reassociate collects single-use chains of one associative operation, sorts
// leaves by rank (params/instructions before constants) and rebuilds a
// left-leaning chain with constants folded, exposing CSE opportunities.
func reassociate(f *ir.Function) int {
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
				replaceWithValue(&fu, in, vals[0])
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

func identityConst(op ir.Op, c *ir.Const) bool {
	switch op {
	case ir.OpAdd, ir.OpFAdd, ir.OpOr, ir.OpXor:
		return c.IsZero()
	case ir.OpMul, ir.OpFMul:
		return c.IsOne()
	}
	return false
}

// canonicalizeCommutative sorts commutative operand pairs into a stable
// order, making structurally-equal expressions literally equal for CSE.
func canonicalizeCommutative(f *ir.Function) int {
	n := 0
	// valueLess compares instruction IDs; refresh them first.
	f.Renumber()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !in.Op.IsCommutative() || len(in.Ops) != 2 {
				continue
			}
			if valueLess(in.Ops[1], in.Ops[0]) {
				in.Ops[0], in.Ops[1] = in.Ops[1], in.Ops[0]
				n++
			}
		}
	}
	return n
}

// eliminateTailCalls rewrites self-recursive calls in tail position into a
// loop over the function body, with parameters turned into phis.
func eliminateTailCalls(f *ir.Function) int {
	// Find tail sites: call f(...) immediately followed by ret (of the call
	// result or void).
	type site struct {
		call *ir.Instr
		ret  *ir.Instr
	}
	var sites []site
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpCall || in.Callee != f.Name || i+1 >= len(b.Instrs) {
				continue
			}
			r := b.Instrs[i+1]
			if r.Op != ir.OpRet {
				continue
			}
			if len(r.Ops) == 0 || r.Ops[0] == in {
				sites = append(sites, site{in, r})
			}
		}
	}
	if len(sites) == 0 {
		return 0
	}
	// New entry: hoist allocas, then jump to the old entry which gains
	// parameter phis.
	oldEntry := f.Entry()
	newEntry := &ir.Block{Name: "tce_entry"}
	ir.AttachBlock(newEntry, f)
	// Hoist allocas from old entry to new entry.
	for i := 0; i < len(oldEntry.Instrs); {
		if oldEntry.Instrs[i].Op == ir.OpAlloca {
			in := oldEntry.Instrs[i]
			oldEntry.RemoveAt(i)
			newEntry.Append(in)
			continue
		}
		i++
	}
	newEntry.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{oldEntry}})
	f.Blocks = append([]*ir.Block{newEntry}, f.Blocks...)

	phis := make([]*ir.Instr, len(f.Params))
	for pi, p := range f.Params {
		phi := &ir.Instr{Op: ir.OpPhi, Ty: p.Ty}
		ir.AddIncoming(phi, p, newEntry)
		oldEntry.InsertBefore(pi, phi)
		phis[pi] = phi
	}
	// Replace parameter uses everywhere except the new entry and the phi
	// incomings themselves.
	for _, b := range f.Blocks {
		if b == newEntry {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				continue
			}
			for oi, op := range in.Ops {
				if p, ok := op.(*ir.Param); ok {
					in.Ops[oi] = phis[p.Index]
				}
			}
		}
	}
	// Rewrite each tail site: jump back to oldEntry with new phi incomings.
	for _, s := range sites {
		b := s.call.Parent()
		args := append([]ir.Value(nil), s.call.Ops...)
		idx := b.IndexOf(s.call)
		b.RemoveAt(idx) // call
		b.RemoveAt(idx) // ret
		for pi := range phis {
			var v ir.Value = args[pi]
			ir.AddIncoming(phis[pi], v, b)
		}
		b.Append(&ir.Instr{Op: ir.OpJmp, Ty: ir.VoidT, Blocks: []*ir.Block{oldEntry}})
	}
	return len(sites)
}

// storeRunsToMemset finds >=4 consecutive stores of one constant to adjacent
// addresses and replaces them with a memset builtin call.
func storeRunsToMemset(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpStore || in.Ops[0].Type().IsVector() || in.Ops[0].Type().Kind.IsFloat() {
				continue
			}
			c, ok := in.Ops[0].(*ir.Const)
			if !ok {
				continue
			}
			base := baseObject(in.Ops[1])
			if base == nil {
				continue
			}
			start, ok := constOffsetFrom(base, in.Ops[1])
			if !ok {
				continue
			}
			run := []int{i}
			next := start + 1
			for j := i + 1; j < len(b.Instrs); j++ {
				nj := b.Instrs[j]
				if nj.Op != ir.OpStore {
					if nj.Op == ir.OpLoad || nj.Op == ir.OpCall || nj.IsTerminator() {
						break
					}
					continue
				}
				c2, ok2 := nj.Ops[0].(*ir.Const)
				if !ok2 || c2.I != c.I || baseObject(nj.Ops[1]) != base {
					break
				}
				off, ok3 := constOffsetFrom(base, nj.Ops[1])
				if !ok3 || off != next {
					break
				}
				run = append(run, j)
				next++
			}
			if len(run) < 4 {
				continue
			}
			// Replace the run with one memset(basePtr+start, c, len).
			first := b.Instrs[run[0]]
			ptr := first.Ops[1]
			call := &ir.Instr{Op: ir.OpCall, Ty: ir.VoidT, Callee: "sim.memset",
				Ops: []ir.Value{ptr, ir.ConstInt(ir.I64T, c.I), ir.ConstInt(ir.I64T, int64(len(run)))}}
			for k := len(run) - 1; k >= 0; k-- {
				b.RemoveAt(run[k])
			}
			b.InsertBefore(run[0], call)
			n++
		}
	}
	return n
}

// sinkIntoArms moves pure single-target-use instructions from a branching
// block into the arm that uses them, so the untaken path skips the work.
func sinkIntoArms(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	cfg := ir.BuildCFG(f)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		for i := len(b.Instrs) - 2; i >= 0; i-- {
			in := b.Instrs[i]
			if !isPure(m, in) || mayTrap(in) || in.Op == ir.OpPhi {
				continue
			}
			// All uses must live in exactly one arm (single-pred), and not in
			// b itself.
			var home *ir.Block
			ok := true
			for _, x := range fu.get().Of(in) {
				ob := x.User.Parent()
				if ob == b || home != nil && home != ob {
					ok = false
					break
				}
				home = ob
			}
			if !ok || home == nil {
				continue
			}
			if home != t.Blocks[0] && home != t.Blocks[1] {
				continue
			}
			if len(cfg.Preds(home)) != 1 || len(home.Phis()) > 0 {
				continue
			}
			// Moving in keeps the index coherent: a use's block is read
			// from its user.
			b.RemoveAt(i)
			home.InsertBefore(0, in)
			n++
		}
	}
	return n
}

// speculateArms hoists cheap pure non-trapping instructions from the head of
// branch arms into the branching block, shortening dependent chains and
// preparing if-conversion.
func speculateArms(m *ir.Module, f *ir.Function) int {
	n := 0
	cfg := ir.BuildCFG(f)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		for _, arm := range t.Blocks {
			if len(cfg.Preds(arm)) != 1 || arm == b {
				continue
			}
			budget := 2
			for budget > 0 && len(arm.Instrs) > 1 {
				in := arm.Instrs[0]
				if in.Op == ir.OpPhi || !isPure(m, in) || mayTrap(in) || in.IsTerminator() {
					break
				}
				arm.RemoveAt(0)
				b.InsertBefore(b.IndexOf(t), in)
				budget--
				n++
			}
		}
	}
	return n
}

// straightLineSR rewrites x*(c+delta) as (x*c)+x*delta-style chains: when two
// multiplications share a multiplicand and their constants differ by 1 or 2,
// the later one becomes an add on the earlier result.
func straightLineSR(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		type mulRec struct {
			in *ir.Instr
			c  int64
		}
		byOperand := map[ir.Value][]mulRec{}
		for _, in := range b.Instrs {
			if in.Op != ir.OpMul || in.Ty.IsVector() {
				continue
			}
			c, ok := constOp(in, 1)
			if !ok {
				continue
			}
			x := in.Ops[0]
			for _, prev := range byOperand[x] {
				delta := c.I - prev.c
				if delta == 1 {
					in.Op = ir.OpAdd
					in.Ops = []ir.Value{prev.in, x}
					n++
					break
				}
				if delta == -1 {
					in.Op = ir.OpSub
					in.Ops = []ir.Value{prev.in, x}
					n++
					break
				}
			}
			if in.Op == ir.OpMul {
				byOperand[x] = append(byOperand[x], mulRec{in, c.I})
			}
		}
	}
	return n
}

// divRemPairs rewrites rem as a-(a/b)*b when the matching division already
// exists in the same block (one expensive op instead of two).
func divRemPairs(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpSRem || in.Ty.IsVector() {
				continue
			}
			var div *ir.Instr
			for j := 0; j < i; j++ {
				d := b.Instrs[j]
				if d.Op == ir.OpSDiv && d.Ops[0] == in.Ops[0] && d.Ops[1] == in.Ops[1] {
					div = d
					break
				}
			}
			if div == nil {
				continue
			}
			mul := &ir.Instr{Op: ir.OpMul, Ty: in.Ty, Ops: []ir.Value{div, in.Ops[1]}}
			b.InsertBefore(i, mul)
			in.Op = ir.OpSub
			in.Ops = []ir.Value{in.Ops[0], mul}
			n++
		}
	}
	return n
}

// floatToInt demotes float arithmetic whose operands are sitofp(int) and
// whose only use is fptosi back to integers.
func floatToInt(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpFPToSI || in.Ty.IsVector() {
				continue
			}
			op, ok := in.Ops[0].(*ir.Instr)
			if !ok {
				continue
			}
			var intOp ir.Op
			switch op.Op {
			case ir.OpFAdd:
				intOp = ir.OpAdd
			case ir.OpFSub:
				intOp = ir.OpSub
			case ir.OpFMul:
				intOp = ir.OpMul
			default:
				continue
			}
			a, okA := op.Ops[0].(*ir.Instr)
			c, okC := op.Ops[1].(*ir.Instr)
			if !okA || !okC || a.Op != ir.OpSIToFP || c.Op != ir.OpSIToFP {
				continue
			}
			if a.Ops[0].Type() != in.Ty || c.Ops[0].Type() != in.Ty || fu.get().Count(op) != 1 {
				continue
			}
			in.Op = intOp
			fu.setOps(in, []ir.Value{a.Ops[0], c.Ops[0]})
			n++
		}
	}
	return n
}

// inlineIntBuiltins expands sim.abs/min/max calls into compare+select.
func inlineIntBuiltins(f *ir.Function) int {
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

// splitGEPOffsets rewrites gep(base, add(i, c)) into gep(gep(base, c), i) so
// the constant part becomes loop-invariant and LICM can hoist it.
func splitGEPOffsets(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpGEP {
				continue
			}
			idx, ok := in.Ops[1].(*ir.Instr)
			if !ok || idx.Op != ir.OpAdd {
				continue
			}
			c, ok := idx.ConstOperand(1)
			if !ok || c.IsZero() {
				continue
			}
			inner := &ir.Instr{Op: ir.OpGEP, Ty: ir.PtrT, Ops: []ir.Value{in.Ops[0], c}}
			b.InsertBefore(i, inner)
			in.Ops[0] = inner
			in.Ops[1] = idx.Ops[0]
			n++
		}
	}
	return n
}

// scalarizeVectors splits vector arithmetic into per-lane scalar operations
// (a genuine deoptimising direction in the search space, as in LLVM's
// scalarizer pass).
func scalarizeVectors(f *ir.Function) int {
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

func zeroValue(t ir.Type) ir.Value {
	if t.Kind.IsFloat() {
		return ir.ConstFloat(t, 0)
	}
	return ir.ConstInt(t, 0)
}

// expandReductions lowers vecreduce.add into an extract+add chain.
func expandReductions(f *ir.Function) int {
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

// mergeICmpChains folds `and` chains of equality compares over consecutive
// addresses into a single memcmp builtin call.
func mergeICmpChains(f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAnd || in.Ty != ir.I1T {
				continue
			}
			var cmps []*ir.Instr
			var walk func(v ir.Value) bool
			walk = func(v ir.Value) bool {
				d, ok := v.(*ir.Instr)
				if !ok {
					return false
				}
				if d.Op == ir.OpAnd && d.Ty == ir.I1T && d.Parent() == b && fu.get().Count(d) == 1 {
					return walk(d.Ops[0]) && walk(d.Ops[1])
				}
				if d.Op == ir.OpICmp && d.Pred == ir.CmpEQ && d.Parent() == b && fu.get().Count(d) == 1 {
					cmps = append(cmps, d)
					return true
				}
				return false
			}
			if !walk(in.Ops[0]) || !walk(in.Ops[1]) || len(cmps) < 3 {
				continue
			}
			// Each compare must be load(p+k) == load(q+k) for the same bases
			// and a contiguous 0..len-1 offset range.
			type cmpOff struct {
				off int64
			}
			var baseP, baseQ ir.Value
			offs := make(map[int64]bool)
			okAll := true
			minOff := int64(1 << 62)
			var firstP, firstQ ir.Value
			for _, c := range cmps {
				l0, ok0 := c.Ops[0].(*ir.Instr)
				l1, ok1 := c.Ops[1].(*ir.Instr)
				if !ok0 || !ok1 || l0.Op != ir.OpLoad || l1.Op != ir.OpLoad ||
					l0.Parent() != b || l1.Parent() != b ||
					fu.get().Count(l0) != 1 || fu.get().Count(l1) != 1 {
					okAll = false
					break
				}
				bp, bq := baseObject(l0.Ops[0]), baseObject(l1.Ops[0])
				if bp == nil || bq == nil {
					okAll = false
					break
				}
				op, okP := constOffsetFrom(bp, l0.Ops[0])
				oq, okQ := constOffsetFrom(bq, l1.Ops[0])
				if !okP || !okQ || op != oq {
					okAll = false
					break
				}
				if baseP == nil {
					baseP, baseQ = bp, bq
				} else if baseP != bp || baseQ != bq {
					okAll = false
					break
				}
				offs[op] = true
				if op < minOff {
					minOff = op
					firstP, firstQ = l0.Ops[0], l1.Ops[0]
				}
			}
			if !okAll || int64(len(offs)) != int64(len(cmps)) {
				continue
			}
			contiguous := true
			for k := minOff; k < minOff+int64(len(cmps)); k++ {
				if !offs[k] {
					contiguous = false
					break
				}
			}
			if !contiguous {
				continue
			}
			// Rewrite: in = icmp ne memcmp(p,q,len), 0.
			call := &ir.Instr{Op: ir.OpCall, Ty: ir.I64T, Callee: "sim.memcmp",
				Ops: []ir.Value{firstP, firstQ, ir.ConstInt(ir.I64T, int64(len(cmps)))}}
			b.InsertBefore(b.IndexOf(in), call)
			fu.inserted(call)
			in.Op = ir.OpICmp
			in.Pred = ir.CmpNE
			fu.setOps(in, []ir.Value{call, ir.ConstInt(ir.I64T, 0)})
			n++
			break // restart this block next pass run; chains rarely repeat
		}
	}
	return n
}

// splitCallSites duplicates a call whose argument is a phi into each
// predecessor with the argument resolved, enabling later specialisation.
func splitCallSites(m *ir.Module, f *ir.Function) int {
	n := 0
	cfg := ir.BuildCFG(f)
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

// forwardStoreToLoad replaces a load with the most recent store to the same
// address within the block when nothing in between may clobber it.
func forwardStoreToLoad(f *ir.Function) int {
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
						replaceWithValue(&fu, in, p.Ops[0])
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
