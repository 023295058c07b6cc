package passes

import (
	"sort"

	"repro/internal/ir"
)

func init() {
	register("loop-vectorize", "vectorise counted innermost loops",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-vectorize.LoopsVectorized", vectorizeLoops(m, f))
			})
		})

	register("slp-vectorizer", "superword-level parallelism vectorisation",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				nv, nr := slpVectorize(m, f)
				st.Add("SLP.NumVectorInstructions", nv)
				st.Add("SLP.NumVecReductions", nr)
			})
		})

	register("vector-combine", "fold redundant vector element traffic",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("vector-combine.NumCombined", combineVectorOps(f))
			})
		})

	register("load-store-vectorizer", "merge consecutive scalar memory ops",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("load-store-vectorizer.NumVectorized", vectorizeLoadRuns(m, f))
			})
		})
}

// vectorizeLoops widens rotated single-block counted loops: stride-one loads
// and stores become vector memory ops, element-wise arithmetic becomes vector
// arithmetic, and reductions become vector accumulators reduced at the exit.
func vectorizeLoops(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for changed := true; changed; {
		changed = false
		cfg, _, li := ir.LoopsOf(f)
		for _, l := range li.Loops {
			if vectorizeOneLoop(m, cfg, l, &fu) {
				n++
				changed = true
				break
			}
		}
	}
	return n
}

// vectorizeOneLoop leaves fu coherent when it declines and without an index
// when it vectorises.
func vectorizeOneLoop(m *ir.Module, cfg *ir.CFG, l *ir.Loop, fu *funcUses) bool {
	if l.Preheader == nil || l.Header != l.Latch || len(l.Blocks()) != 1 {
		return false
	}
	b := l.Header
	iv := ir.FindCanonicalIV(cfg, l)
	if iv == nil || iv.Step != 1 || iv.Cmp == nil || iv.Cmp.Pred != ir.CmpSLT {
		return false
	}
	if iv.Cmp.Ops[0] != iv.Next && iv.Cmp.Ops[1] != iv.Next {
		return false
	}
	trip := iv.TripCount()
	exitB := exitTargetOf(cfg, l, b)
	if exitB == nil {
		return false
	}

	// Classify every instruction.
	type class int
	const (
		cIV class = iota
		cGep
		cLoad
		cStore
		cArith
		cReduce
		cControl
	)
	kind := map[*ir.Instr]class{}
	var reductions []*ir.Instr // reduction phis
	var maxKind ir.Kind
	widened := false
	for _, in := range b.Instrs {
		switch {
		case in == iv.Phi || in == iv.Next || in == iv.Cmp || in.IsTerminator():
			kind[in] = cControl
		case in.Op == ir.OpPhi:
			// Candidate reduction: phi updated by a single add/fadd chain.
			kind[in] = cReduce
			reductions = append(reductions, in)
		case in.Op == ir.OpGEP:
			// Index must be exactly the IV (stride one) with an invariant
			// base.
			if in.Ops[1] != iv.Phi || !ir.IsLoopInvariant(l, in.Ops[0]) {
				return false
			}
			kind[in] = cGep
		case in.Op == ir.OpLoad:
			g, ok := in.Ops[0].(*ir.Instr)
			if !ok || g.Op != ir.OpGEP || !l.Contains(g.Parent()) {
				return false
			}
			kind[in] = cLoad
			if in.Ty.Kind > maxKind && in.Ty.Kind.IsInt() {
				maxKind = in.Ty.Kind
			}
		case in.Op == ir.OpStore:
			g, ok := in.Ops[1].(*ir.Instr)
			if !ok || g.Op != ir.OpGEP || !l.Contains(g.Parent()) {
				return false
			}
			kind[in] = cStore
		case (in.Op.IsBinary() || in.Op.IsCast() || in.Op == ir.OpSelect ||
			in.Op == ir.OpICmp || in.Op == ir.OpFCmp) && !in.Ty.IsVector():
			kind[in] = cArith
			if in.Flags&ir.FlagWidened != 0 {
				widened = true
			}
			if in.Ty.Kind > maxKind && in.Ty.Kind.IsInt() {
				maxKind = in.Ty.Kind
			}
			if in.Ty.Kind.IsFloat() && maxKind < ir.I32 {
				maxKind = ir.I32 // floats occupy their own width class below
			}
		default:
			return false // calls, allocas, nested control: not vectorisable
		}
	}
	// Verify the reduction shape: phi -> add(phi, x) (single in-loop use).
	redNext := map[*ir.Instr]*ir.Instr{}
	for _, r := range reductions {
		var nextV *ir.Instr
		for i, fb := range r.Blocks {
			if l.Contains(fb) {
				nv, ok := r.Ops[i].(*ir.Instr)
				if !ok {
					return false
				}
				nextV = nv
			}
		}
		if nextV == nil || (nextV.Op != ir.OpAdd && nextV.Op != ir.OpFAdd) {
			return false
		}
		if nextV.Ops[0] != r && nextV.Ops[1] != r {
			return false
		}
		// The phi must feed only its own update inside the loop.
		for _, x := range fu.get().Of(r) {
			if in := x.User; in.Parent() == b && in != nextV && in.Op != ir.OpPhi {
				return false
			}
		}
		redNext[r] = nextV
		if nextV.Ty.Kind > maxKind && nextV.Ty.Kind.IsInt() {
			maxKind = nextV.Ty.Kind
		}
	}

	// Profitability and legality of the width.
	if maxKind == 0 {
		maxKind = ir.I64
	}
	vf := m.VecLanesFor(maxKind)
	if widened {
		// Widened arithmetic (Fig 5.1c) forces 64-bit lanes.
		vf = m.VecLanesFor(ir.I64)
	}
	if vf < 2 {
		return false // not profitable on this target
	}
	if trip <= 0 || trip%int64(vf) != 0 || trip < int64(2*vf) {
		return false
	}
	// Aliasing: stores must not alias loads of different base objects;
	// identical (base, iv) pairs are same-element and fine.
	var storeBases, loadBases []ir.Value
	for _, in := range b.Instrs {
		switch kind[in] {
		case cStore:
			g := in.Ops[1].(*ir.Instr)
			bo := baseObject(g.Ops[0])
			if bo == nil {
				return false
			}
			storeBases = append(storeBases, bo)
		case cLoad:
			g := in.Ops[0].(*ir.Instr)
			bo := baseObject(g.Ops[0])
			if bo == nil {
				return false
			}
			loadBases = append(loadBases, bo)
		}
	}
	_ = loadBases // same-base load/store pairs access the same element (index == iv)

	// ---- Transform ----
	fu.drop() // the rewrite below goes behind the index's back
	vecOf := map[*ir.Instr]bool{}
	for _, in := range b.Instrs {
		switch kind[in] {
		case cLoad, cStore, cArith:
			vecOf[in] = true
		}
	}
	// Reduction phis become vector accumulators.
	for _, r := range reductions {
		vecOf[r] = true
		vecOf[redNext[r]] = true
	}
	// Broadcast cache for invariant operands.
	bcast := map[ir.Value]*ir.Instr{}
	getBroadcast := func(v ir.Value, ty ir.Type, before *ir.Instr) ir.Value {
		if c, ok := v.(*ir.Const); ok {
			// Constants splat for free at execution; still need a broadcast
			// instruction for type correctness.
			if bc, ok2 := bcast[c]; ok2 && bc.Ty == ty {
				return bc
			}
		}
		if bc, ok := bcast[v]; ok && bc.Ty == ty {
			return bc
		}
		bc := &ir.Instr{Op: ir.OpBroadcast, Ty: ty, Ops: []ir.Value{v}}
		// Invariant: hoist to preheader.
		l.Preheader.InsertBefore(len(l.Preheader.Instrs)-1, bc)
		bcast[v] = bc
		_ = before
		return bc
	}

	for _, in := range b.Instrs {
		if !vecOf[in] {
			continue
		}
		switch kind[in] {
		case cLoad:
			in.Ty = ir.Vec(in.Ty.Kind, vf)
		case cStore:
			// Operand must become vector; handled via operand rewrite below.
		case cArith, cReduce:
			in.Ty = ir.Vec(in.Ty.Kind, vf)
		}
	}
	// Rewrite operands: vectorised producers stay; invariant scalars get
	// broadcast; the IV-compare and geps stay scalar.
	for _, in := range b.Instrs {
		if !vecOf[in] && kind[in] != cStore {
			continue
		}
		if kind[in] == cGep || kind[in] == cControl || in.Op == ir.OpPhi {
			continue // reduction phi incomings are rewritten separately
		}
		for oi, op := range in.Ops {
			if in.Op == ir.OpLoad || (in.Op == ir.OpStore && oi == 1) ||
				in.Op == ir.OpGEP {
				continue // addresses stay scalar
			}
			if in.Op == ir.OpExtractElement && oi == 1 {
				continue
			}
			d, isInstr := op.(*ir.Instr)
			if isInstr && vecOf[d] {
				continue
			}
			// Invariant scalar: broadcast to the operand's vector type.
			elem := op.Type().Kind
			want := ir.Vec(elem, vf)
			if in.Op.IsCast() {
				want = ir.Vec(op.Type().Kind, vf)
			}
			in.Ops[oi] = getBroadcast(op, want, in)
		}
	}
	// Reduction phis: vector init = insert scalar init into zero vector (in
	// preheader); after the loop reduce and merge with the rotation's exit
	// phi.
	for _, r := range reductions {
		var initV ir.Value
		for i, fb := range r.Blocks {
			if !l.Contains(fb) {
				initV = r.Ops[i]
				zero := zeroValue(ir.Type{Kind: r.Ty.Kind, Lanes: 1})
				zv := &ir.Instr{Op: ir.OpBroadcast, Ty: r.Ty, Ops: []ir.Value{zero}}
				ins := &ir.Instr{Op: ir.OpInsertElement, Ty: r.Ty,
					Ops: []ir.Value{zv, initV, ir.ConstInt(ir.I64T, 0)}}
				l.Preheader.InsertBefore(len(l.Preheader.Instrs)-1, zv)
				l.Preheader.InsertBefore(len(l.Preheader.Instrs)-1, ins)
				r.Ops[i] = ins
			}
		}
		// Exit-side: rewrite the exit phi (if any) that merged [init, P],
		// [rNext, L] into a vector phi + reduce.
		rn := redNext[r]
		sc := ir.Type{Kind: r.Ty.Kind, Lanes: 1}
		for _, ephi := range exitB.Phis() {
			usesRN := false
			for _, op := range ephi.Ops {
				if op == rn {
					usesRN = true
				}
			}
			if !usesRN {
				continue
			}
			// Vectorise the exit phi: scalar incomings get lane-0 inserts.
			ephi.Ty = r.Ty
			for i, op := range ephi.Ops {
				if op == rn {
					continue
				}
				zv := &ir.Instr{Op: ir.OpBroadcast, Ty: r.Ty, Ops: []ir.Value{zeroValue(sc)}}
				ins := &ir.Instr{Op: ir.OpInsertElement, Ty: r.Ty,
					Ops: []ir.Value{zv, op, ir.ConstInt(ir.I64T, 0)}}
				from := ephi.Blocks[i]
				from.InsertBefore(len(from.Instrs)-1, zv)
				from.InsertBefore(len(from.Instrs)-1, ins)
				ephi.Ops[i] = ins
			}
			red := &ir.Instr{Op: ir.OpVecReduceAdd, Ty: sc, Ops: []ir.Value{ephi}}
			exitB.InsertBefore(exitB.NumPhis(), red)
			// All other uses of the exit phi see the scalar reduction.
			fu.setAll(fu.collect(ephi, func(x ir.Use) bool { return x.User != red }), red)
			fu.drop()
		}
		// Direct outside uses of rn (no exit phi): only legal when exitB is
		// dominated by b; rotation always goes through exit phis, so skip.
	}
	// IV steps by the vector factor.
	for oi, op := range iv.Next.Ops {
		if c, ok := op.(*ir.Const); ok && c.I == 1 {
			iv.Next.Ops[oi] = ir.ConstInt(c.Ty, int64(vf))
		}
	}
	return true
}

// slpVectorize finds reduction chains over consecutive memory and rewrites
// them as vector loads + vector multiply + horizontal reduction. This is the
// transformation at the heart of the paper's motivating example (Fig 5.1):
// it only fires when operand widths fit the target SIMD width, so an
// instcombine-widened chain (FlagWidened, i64) is rejected on narrow targets.
func slpVectorize(m *ir.Module, f *ir.Function) (int, int) {
	nVec, nRed := 0, 0
	fu := funcUses{f: f}
	defer fu.done()
	sc := getScratch()
	defer putScratch(sc)
	for _, b := range f.Blocks {
		for {
			vn, rn := slpOneChain(m, b, &fu, sc)
			if rn == 0 && vn == 0 {
				break
			}
			nVec += vn
			nRed += rn
		}
	}
	nVec += slpStoreGroups(m, f, &fu)
	return nVec, nRed
}

// slpTerm is one leaf of an add-reduction chain.
type slpTerm struct {
	add    *ir.Instr // the add consuming this term
	term   ir.Value
	mulA   *ir.Instr // load feeding lhs (possibly through sext)
	mulB   *ir.Instr // load feeding rhs
	extA   *ir.Instr // sext between load and mul, if any
	extB   *ir.Instr
	mul    *ir.Instr // the multiply, nil for plain-load terms
	offA   int64
	offB   int64
	baseA  ir.Value
	baseB  ir.Value
	symA   ir.Value
	symB   ir.Value
	widest ir.Kind
}

// slpOneChain vectorises the first profitable reduction chain in b. A
// chain's terms and its matched terms live in sc's buffers.
func slpOneChain(m *ir.Module, b *ir.Block, fu *funcUses, sc *scratch) (int, int) {
	// Stores between the loads and a chain would invalidate reordering. The
	// block does not change until a chain is rewritten, which ends this call.
	hazard, hazardKnown := false, false
	storeOrCall := func() bool {
		if !hazardKnown {
			hazard, hazardKnown = blockHasStoreOrCall(m, b), true
		}
		return hazard
	}
	// Find chain roots: add/fadd not feeding another same-op single-use add.
	for _, root := range b.Instrs {
		if root.Op != ir.OpAdd && root.Op != ir.OpFAdd || root.Ty.IsVector() {
			continue
		}
		u := fu.get()
		feeds := false
		for _, x := range u.Of(root) {
			if x.User.Op == root.Op && x.User.Parent() == b {
				feeds = true
				break
			}
		}
		if feeds {
			continue
		}
		// Walk the linear chain acc_k = add(acc_{k-1}, t_k).
		terms := sc.slpTerms[:0]
		cur := root
		for {
			a, b2 := cur.Ops[0], cur.Ops[1]
			ai, aok := a.(*ir.Instr)
			if aok && ai.Op == cur.Op && ai.Parent() == b && u.Count(ai) == 1 {
				terms = append(terms, slpTerm{add: cur, term: b2})
				cur = ai
				continue
			}
			bi, bok := b2.(*ir.Instr)
			if bok && bi.Op == cur.Op && bi.Parent() == b && u.Count(bi) == 1 {
				terms = append(terms, slpTerm{add: cur, term: a})
				cur = bi
				continue
			}
			// Chain bottom: one side is the initial accumulator.
			terms = append(terms, slpTerm{add: cur, term: b2})
			break
		}
		sc.slpTerms = terms
		if len(terms) < 4 {
			continue
		}
		// Match every term except possibly the chain bottom's accumulator.
		matched := matchSLPTerms(u, b, terms, storeOrCall, sc.slpMatched[:0])
		sc.slpMatched = matched
		if len(matched) < 4 {
			continue
		}
		// Group by (baseA, baseB) and look for consecutive offsets.
		sort.Slice(matched, func(i, j int) bool { return matched[i].offA < matched[j].offA })
		group := consecutiveRun(matched)
		if len(group) < 4 {
			continue
		}
		vf := 4
		// Profitability: the widest element kind must fit vf lanes on the
		// target (the paper's i64-widening defeats this on 128-bit SIMD).
		widest := ir.I8
		isFloat := false
		for _, t := range group {
			if t.widest > widest {
				widest = t.widest
			}
			if t.add.Ty.Kind.IsFloat() {
				isFloat = true
			}
		}
		if isFloat {
			widest = ir.I64 // f64 chain: 64-bit lanes
			if group[0].mulA != nil && group[0].mulA.Ty.Kind == ir.F32 {
				widest = ir.I32
			}
		}
		if m.VecLanesFor(widest) < vf {
			continue // unprofitable on this target
		}
		group = group[:vf]

		// Build vector IR before the first add of the group. The addresses
		// of the lowest-offset loads must already be defined at that point.
		insertPos := len(b.Instrs)
		for _, t := range group {
			if p := b.IndexOf(t.add); p < insertPos {
				insertPos = p
			}
		}
		addrOK := true
		for _, av := range []ir.Value{group[0].mulA.Ops[0], func() ir.Value {
			if group[0].mulB != nil {
				return group[0].mulB.Ops[0]
			}
			return nil
		}()} {
			ai, isI := av.(*ir.Instr)
			if av == nil || !isI {
				continue
			}
			if ai.Parent() == b && b.IndexOf(ai) >= insertPos {
				addrOK = false
			}
		}
		if !addrOK {
			continue
		}
		elemK := group[0].mulA.Ty.Kind
		emit := func(in *ir.Instr) *ir.Instr {
			b.InsertBefore(insertPos, in)
			u.Insert(in)
			insertPos++
			return in
		}
		vload := func(base ir.Value, firstPtr ir.Value) *ir.Instr {
			return emit(&ir.Instr{Op: ir.OpLoad, Ty: ir.Vec(elemK, vf), Ops: []ir.Value{firstPtr}})
		}
		la := vload(group[0].baseA, group[0].mulA.Ops[0])
		var combined ir.Value
		accTy := group[0].add.Ty
		if group[0].mul != nil {
			lb := vload(group[0].baseB, group[0].mulB.Ops[0])
			var va, vb ir.Value = la, lb
			if group[0].extA != nil {
				va = emit(&ir.Instr{Op: group[0].extA.Op, Ty: ir.Vec(group[0].extA.Ty.Kind, vf), Ops: []ir.Value{la}})
			}
			if group[0].extB != nil {
				vb = emit(&ir.Instr{Op: group[0].extB.Op, Ty: ir.Vec(group[0].extB.Ty.Kind, vf), Ops: []ir.Value{lb}})
			}
			combined = emit(&ir.Instr{Op: group[0].mul.Op, Ty: ir.Vec(group[0].mul.Ty.Kind, vf), Ops: []ir.Value{va, vb}})
		} else {
			combined = la
		}
		// Widen to the accumulator type if needed, then reduce.
		cv := combined.(*ir.Instr)
		if cv.Ty.Kind != accTy.Kind {
			cv = emit(&ir.Instr{Op: ir.OpSExt, Ty: ir.Vec(accTy.Kind, vf), Ops: []ir.Value{cv}})
		}
		red := emit(&ir.Instr{Op: ir.OpVecReduceAdd, Ty: accTy, Ops: []ir.Value{cv}})

		// Replace the group's terms: the first grouped add absorbs the
		// reduction; the others forward their remaining operand.
		for i, t := range group {
			for oi, op := range t.add.Ops {
				if op == t.term {
					if i == 0 {
						u.Set(t.add, oi, red)
					} else {
						// Remove this add from the chain: replace it with its
						// other operand.
						other := t.add.Ops[1-oi]
						replaceNow(fu, t.add, other)
					}
					break
				}
			}
		}
		// Count vector instructions emitted.
		emitted := 3 // vload + reduce + mul/sext mix, at least
		if group[0].mul != nil {
			emitted = 4
		}
		return emitted, 1
	}
	return 0, 0
}

// matchSLPTerms extracts load/mul structure from chain terms, appending the
// matches to out.
func matchSLPTerms(u *ir.Uses, b *ir.Block, terms []slpTerm, storeOrCall func() bool, out []slpTerm) []slpTerm {
	stripExt := func(v ir.Value) (*ir.Instr, *ir.Instr) { // (load, ext)
		in, ok := v.(*ir.Instr)
		if !ok || in.Parent() != b {
			return nil, nil
		}
		var ext *ir.Instr
		if in.Op == ir.OpSExt || in.Op == ir.OpZExt {
			if u.Count(in) != 1 {
				return nil, nil
			}
			ext = in
			ld, ok2 := in.Ops[0].(*ir.Instr)
			if !ok2 || ld.Parent() != b {
				return nil, nil
			}
			in = ld
		}
		if in.Op != ir.OpLoad || in.Ty.IsVector() || u.Count(in) != 1 {
			return nil, nil
		}
		return in, ext
	}
	for _, t := range terms {
		ti, ok := t.term.(*ir.Instr)
		if !ok || ti.Parent() != b || u.Count(ti) != 1 {
			continue
		}
		rec := t
		// Peel an outer widening sext around the multiply:
		// sext(mul(...)) — the canonical pre-widened dot-product shape.
		if ti.Op == ir.OpSExt {
			if inner, okI := ti.Ops[0].(*ir.Instr); okI &&
				(inner.Op == ir.OpMul || inner.Op == ir.OpFMul) &&
				inner.Parent() == b && u.Count(inner) == 1 {
				ti = inner
			}
		}
		var lA, lB, eA, eB *ir.Instr
		switch {
		case ti.Op == ir.OpMul || ti.Op == ir.OpFMul:
			lA, eA = stripExt(ti.Ops[0])
			lB, eB = stripExt(ti.Ops[1])
			if lA == nil || lB == nil {
				continue
			}
			rec.mul = ti
			rec.widest = ti.Ty.Kind
		case ti.Op == ir.OpLoad:
			lA = ti
			rec.widest = ti.Ty.Kind
		case ti.Op == ir.OpSExt || ti.Op == ir.OpZExt:
			lA, eA = stripExt(ti)
			if lA == nil {
				continue
			}
			rec.widest = ti.Ty.Kind
		default:
			continue
		}
		// Loads must be at (root + sym + const) addresses so consecutive
		// offsets are recognisable even inside unrolled loop bodies.
		boA, symA, offA, okA := symbolicAddr(lA.Ops[0])
		if !okA {
			continue
		}
		rec.mulA, rec.extA, rec.baseA, rec.symA, rec.offA = lA, eA, boA, symA, offA
		if lB != nil {
			boB, symB, offB, okB := symbolicAddr(lB.Ops[0])
			if !okB {
				continue
			}
			rec.mulB, rec.extB, rec.baseB, rec.symB, rec.offB = lB, eB, boB, symB, offB
		}
		if storeOrCall() {
			continue
		}
		out = append(out, rec)
	}
	// All terms must share bases and shape: keep those like the first, in
	// place.
	if len(out) == 0 {
		return out
	}
	ref := out[0]
	same := out[:0]
	for _, t := range out {
		if t.baseA == ref.baseA && t.symA == ref.symA &&
			((t.mul == nil) == (ref.mul == nil)) &&
			(t.mul == nil || (t.baseB == ref.baseB && t.symB == ref.symB)) {
			same = append(same, t)
		}
	}
	return same
}

// blockHasStoreOrCall reports stores or memory-writing calls in b
// (conservative SLP legality: reordering loads across them is unsafe; output
// builtins do not write program memory and are harmless).
func blockHasStoreOrCall(m *ir.Module, b *ir.Block) bool {
	for _, in := range b.Instrs {
		if in.Op == ir.OpStore {
			return true
		}
		if in.Op == ir.OpCall {
			if ir.IsBuiltin(in.Callee) {
				switch in.Callee {
				case "sim.memset", "sim.memcpy":
					return true
				}
				continue
			}
			callee := m.Func(in.Callee)
			if callee == nil || !callee.HasAttr(ir.AttrReadNone) && !callee.HasAttr(ir.AttrReadOnly) {
				return true
			}
		}
	}
	return false
}

// consecutiveRun returns the longest run of terms with consecutive offA (and
// offB when present), starting from the sorted slice: the first of the
// longest, as a sub-slice of ts.
func consecutiveRun(ts []slpTerm) []slpTerm {
	best := ts[:0]
	for i := 0; i < len(ts); i++ {
		j := i + 1
		for j < len(ts) && ts[j].offA == ts[j-1].offA+1 &&
			(ts[j].mul == nil || ts[j].offB == ts[j-1].offB+1) {
			j++
		}
		if j-i > len(best) {
			best = ts[i:j:j]
		}
	}
	return best
}

// slpStoreGroups merges 4 consecutive stores of isomorphic computations over
// consecutive loads into vector form.
func slpStoreGroups(m *ir.Module, f *ir.Function, fu *funcUses) int {
	n := 0
	for _, b := range f.Blocks {
		var stores []*ir.Instr
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore && !in.Ops[0].Type().IsVector() {
				stores = append(stores, in)
			}
		}
		if len(stores) < 4 {
			continue
		}
		type sRec struct {
			st   *ir.Instr
			base ir.Value
			off  int64
		}
		var recs []sRec
		for _, st := range stores {
			bo := baseObject(st.Ops[1])
			if bo == nil {
				continue
			}
			off, ok := constOffsetFrom(bo, st.Ops[1])
			if !ok {
				continue
			}
			recs = append(recs, sRec{st, bo, off})
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].off < recs[j].off })
		for i := 0; i+3 < len(recs); i++ {
			g := recs[i : i+4]
			ok := g[0].base == g[1].base && g[1].base == g[2].base && g[2].base == g[3].base
			for k := 1; k < 4 && ok; k++ {
				if g[k].off != g[0].off+int64(k) {
					ok = false
				}
			}
			if !ok {
				continue
			}
			// Values must be direct loads from consecutive addresses of a
			// single source (simple isomorphism: vectorised copy).
			var loads [4]*ir.Instr
			okLoads := true
			for k := 0; k < 4; k++ {
				ld, isL := g[k].st.Ops[0].(*ir.Instr)
				if !isL || ld.Op != ir.OpLoad || ld.Parent() != b || fu.get().Count(ld) != 1 {
					okLoads = false
					break
				}
				loads[k] = ld
			}
			if !okLoads {
				continue
			}
			srcBase := baseObject(loads[0].Ops[0])
			if srcBase == nil || srcBase == g[0].base {
				continue
			}
			off0, ok0 := constOffsetFrom(srcBase, loads[0].Ops[0])
			if !ok0 {
				continue
			}
			okSeq := true
			for k := 1; k < 4; k++ {
				bo := baseObject(loads[k].Ops[0])
				off, okK := constOffsetFrom(srcBase, loads[k].Ops[0])
				if bo != srcBase || !okK || off != off0+int64(k) {
					okSeq = false
					break
				}
			}
			if !okSeq {
				continue
			}
			elemK := loads[0].Ty.Kind
			if m.VecLanesFor(elemK) < 4 {
				continue
			}
			// Rewrite: one vector load + one vector store at the first pair.
			vl := &ir.Instr{Op: ir.OpLoad, Ty: ir.Vec(elemK, 4), Ops: []ir.Value{loads[0].Ops[0]}}
			pos := b.IndexOf(g[0].st)
			b.InsertBefore(pos, vl)
			fu.inserted(vl)
			fu.set(g[0].st, 0, vl)
			for k := 1; k < 4; k++ {
				b.RemoveAt(b.IndexOf(g[k].st))
				fu.removed(g[k].st)
			}
			for k := 0; k < 4; k++ {
				if !fu.get().Has(loads[k]) {
					if idx := b.IndexOf(loads[k]); idx >= 0 {
						b.RemoveAt(idx)
						fu.removed(loads[k])
					}
				}
			}
			n += 2
			break // block mutated; move on
		}
	}
	return n
}

// combineVectorOps folds extract(insert(v,x,i),i) -> x and
// extract(broadcast(x), i) -> x.
func combineVectorOps(f *ir.Function) int {
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
				replaceWithValue(&fu, in, src.Ops[0])
				n++
			case ir.OpInsertElement:
				li, okL := in.ConstOperand(1)
				si, okS := src.ConstOperand(2)
				if okL && okS && li.I == si.I {
					replaceWithValue(&fu, in, src.Ops[1])
					n++
				}
			}
		}
	}
	return n
}

// vectorizeLoadRuns merges runs of 4 consecutive scalar loads (no intervening
// may-alias stores) into one vector load plus extracts.
func vectorizeLoadRuns(m *ir.Module, f *ir.Function) int {
	n := 0
	fu := funcUses{f: f}
	defer fu.done()
	for _, b := range f.Blocks {
		type lRec struct {
			ld   *ir.Instr
			base ir.Value
			off  int64
			pos  int
		}
		var recs []lRec
		baseOrder := map[ir.Value]int{}
		for pos, in := range b.Instrs {
			if in.Op != ir.OpLoad || in.Ty.IsVector() {
				continue
			}
			bo := baseObject(in.Ops[0])
			if bo == nil {
				continue
			}
			off, ok := constOffsetFrom(bo, in.Ops[0])
			if !ok {
				continue
			}
			if _, seen := baseOrder[bo]; !seen {
				baseOrder[bo] = len(baseOrder)
			}
			recs = append(recs, lRec{in, bo, off, pos})
		}
		if len(recs) < 4 {
			continue
		}
		// Group by base object (interleaved streams, e.g. w[i]/d[i] pairs,
		// must not break the consecutive-offset windows).
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].base != recs[j].base {
				return baseOrder[recs[i].base] < baseOrder[recs[j].base]
			}
			if recs[i].off != recs[j].off {
				return recs[i].off < recs[j].off
			}
			return recs[i].pos < recs[j].pos
		})
		for i := 0; i+3 < len(recs); i++ {
			g := recs[i : i+4]
			ok := true
			for k := 1; k < 4; k++ {
				if g[k].base != g[0].base || g[k].off != g[0].off+int64(k) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			elemK := g[0].ld.Ty.Kind
			if m.VecLanesFor(elemK) < 4 {
				continue
			}
			// No store/effectful call between the first and last load.
			lo, hi := g[0].pos, g[0].pos
			for k := 1; k < 4; k++ {
				if g[k].pos < lo {
					lo = g[k].pos
				}
				if g[k].pos > hi {
					hi = g[k].pos
				}
			}
			hazard := false
			for p := lo; p <= hi && p < len(b.Instrs); p++ {
				in := b.Instrs[p]
				if in.Op == ir.OpStore || (in.Op == ir.OpCall && !ir.IsBuiltin(in.Callee)) {
					hazard = true
					break
				}
			}
			if hazard {
				continue
			}
			// The vector load goes where the FIRST (in program order) load
			// was; extracts replace each original.
			firstPos := lo
			vl := &ir.Instr{Op: ir.OpLoad, Ty: ir.Vec(elemK, 4), Ops: []ir.Value{g[0].ld.Ops[0]}}
			// g[0] is the lowest offset; its address is the vector base. It
			// must dominate firstPos: its address operand is defined before
			// its own position; if the lowest-offset load is not first in
			// program order, bail to keep dominance simple.
			if b.IndexOf(g[0].ld) != firstPos {
				continue
			}
			b.InsertBefore(firstPos, vl)
			fu.inserted(vl)
			for k := 0; k < 4; k++ {
				ext := &ir.Instr{Op: ir.OpExtractElement, Ty: g[k].ld.Ty,
					Ops: []ir.Value{vl, ir.ConstInt(ir.I64T, int64(k))}}
				idx := b.IndexOf(g[k].ld)
				b.InsertBefore(idx, ext)
				fu.inserted(ext)
				replaceNow(&fu, g[k].ld, ext)
			}
			n++
			break // positions stale; next pass run handles more
		}
	}
	return n
}
