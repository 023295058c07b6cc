package passes

import (
	"maps"
	"slices"

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
	var cfgG *ir.CFG
	var dt *ir.DomTree
	if cfg.global {
		cfgG, dt = ir.DomOf(f)
	}

	// Pure-expression facts are immutable SSA values: a block sees those of
	// the blocks that dominate it (its own only, when block-local). One table
	// serves the whole walk — the keys a block adds are popped again when its
	// dominator subtree is done — instead of a copy per block, and it is
	// pooled scratch, so it is not re-grown per function either. Keys are
	// value numbers, which start from a renumbering: the key's commutative
	// operand order compares IDs too, so matching is a pure function of
	// structure, not of ID history.
	scr := getScratch()
	defer putScratch(scr)
	scr.byID = f.InstrsByID(scr.byID)
	vn, exprs := &scr.vn, &scr.exprs
	vn.start(f, scr.byID)

	// visit value-numbers b and then, when dominator-scoped, its dominator-
	// tree children in function block order. Load facts describe memory,
	// which is only unchanged when b's sole CFG predecessor is the block
	// whose end-state (inherited) it is handed — at joins and loop headers
	// (back-edge preds) the inherited memory facts must be dropped.
	//
	// A replaced instruction is unlinked in place; the scan goes on past it,
	// and the block is flushed once its scan is done.
	var visit func(b *ir.Block, inherited map[loadKey]loadFact)
	visit = func(b *ir.Block, inherited map[loadKey]loadFact) {
		mark := exprs.mark()
		// The block's load facts: nil, which reads as no fact, until the
		// first one is recorded.
		var loads map[loadKey]loadFact
		if cfg.global && len(cfgG.Preds(b)) == 1 && inherited != nil {
			loads = maps.Clone(inherited)
		}

		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			switch {
			case in.Op == ir.OpLoad && cfg.loads:
				if in.Ty.IsVector() {
					continue
				}
				k := loadKey{ptr: vn.ident(in.Ops[0]), kind: in.Ty.Kind, lanes: int32(in.Ty.Lanes)}
				if prev, ok := loads[k]; ok {
					replaceWithValue(&fu, in, prev.load)
					nLoad++
					continue
				}
				if loads == nil {
					loads = make(map[loadKey]loadFact)
				}
				loads[k] = loadFact{in.Ops[0], in}
			case in.Op == ir.OpStore:
				// Invalidate may-aliasing loads; remember forwarding value.
				for k, l := range loads {
					if mayAlias(l.ptr, in.Ops[1]) {
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
					if k, ok := vn.key(in); ok {
						if prev := exprs.find(k); prev >= 0 {
							replaceWithValue(&fu, in, scr.byID[prev])
							nInstr++
							continue
						}
						exprs.add(k, in.ID)
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
					loads = nil
				}
			case isPure(m, in) && !mayTrap(in):
				if k, ok := vn.key(in); ok {
					if prev := exprs.find(k); prev >= 0 {
						if prev != in.ID {
							replaceWithValue(&fu, in, scr.byID[prev])
							nInstr++
						}
						continue
					}
					exprs.add(k, in.ID)
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
					if same && slices.Contains(b.Instrs[:i], other) {
						replaceWithValue(&fu, in, other)
						nInstr++
						break
					}
				}
			}
		}
		b.Flush()
		if cfg.global {
			for _, c := range dt.Children(b) {
				visit(c, loads)
			}
		}
		exprs.pop(mark)
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

// valueNumbers numbers the operands of one function's pure instructions for
// runCSE's keys: an instruction of the function by its ID, a parameter of the
// function after the instructions, and everything else — constants by value,
// globals, callee names, foreign values — by interning on first sight.
// Constants intern by their (type, int, float) with float ==, as a map key
// compares them: +0 and -0 are one number, and a NaN is a new number every
// time, so it never matches.
type valueNumbers struct {
	f       *ir.Function
	byID    []*ir.Instr
	next    int32
	consts  map[constKey]int32
	globals map[*ir.Global]int32
	callees map[string]int32
	others  map[ir.Value]int32
}

// constKey is the by-value identity of a constant operand.
type constKey struct {
	ty ir.Type
	i  int64
	f  float64
}

// start numbers f, whose instructions byID lists (InstrsByID). Number 0 is
// no operand.
func (vn *valueNumbers) start(f *ir.Function, byID []*ir.Instr) {
	vn.f, vn.byID = f, byID
	vn.next = int32(len(byID) + len(f.Params) + 1)
	if vn.consts == nil {
		vn.consts = make(map[constKey]int32)
		vn.globals = make(map[*ir.Global]int32)
		vn.callees = make(map[string]int32)
	}
}

// reset empties the tables for the pool: they must not keep IR alive.
func (vn *valueNumbers) reset() {
	vn.f, vn.byID = nil, nil
	if len(vn.consts) > 0 {
		clear(vn.consts)
	}
	if len(vn.globals) > 0 {
		clear(vn.globals)
	}
	if len(vn.callees) > 0 {
		clear(vn.callees)
	}
	vn.others = nil
}

func intern[K comparable](m map[K]int32, k K, next *int32) int32 {
	if n, ok := m[k]; ok {
		return n
	}
	n := *next
	*next++
	m[k] = n
	return n
}

// of returns the value number of an operand.
func (vn *valueNumbers) of(v ir.Value) int32 {
	switch t := v.(type) {
	case *ir.Instr:
		if t != nil && uint(t.ID) < uint(len(vn.byID)) && vn.byID[t.ID] == t {
			return int32(t.ID) + 1
		}
	case *ir.Const:
		return intern(vn.consts, constKey{t.Ty, t.I, t.F}, &vn.next)
	case *ir.Param:
		if t != nil && t.Index >= 0 && t.Index < len(vn.f.Params) && vn.f.Params[t.Index] == t {
			return int32(len(vn.byID)+t.Index) + 1
		}
	case *ir.Global:
		return intern(vn.globals, t, &vn.next)
	case nil:
		return 0
	}
	if vn.others == nil {
		vn.others = make(map[ir.Value]int32)
	}
	return intern(vn.others, v, &vn.next)
}

// ident numbers a value by identity alone: as of, except that a constant is
// its own object, not its value.
func (vn *valueNumbers) ident(v ir.Value) int32 {
	if _, ok := v.(*ir.Const); !ok {
		return vn.of(v)
	}
	if vn.others == nil {
		vn.others = make(map[ir.Value]int32)
	}
	return intern(vn.others, v, &vn.next)
}

// key returns the value-numbering key of a pure instruction and whether the
// instruction is keyable: opcode, type, predicate, callee and operand value
// numbers, commutative operands canonically ordered.
func (vn *valueNumbers) key(in *ir.Instr) (instrKey, bool) {
	k := instrKey{op: in.Op, pred: in.Pred, kind: in.Ty.Kind, lanes: int32(in.Ty.Lanes)}
	if in.Callee != "" {
		k.callee = intern(vn.callees, in.Callee, &vn.next)
	}
	switch len(in.Ops) {
	case 0:
		return k, in.Op != ir.OpAlloca && in.Op != ir.OpPhi
	case 1:
		k.a = vn.of(in.Ops[0])
	case 2:
		x, y := in.Ops[0], in.Ops[1]
		if in.Op.IsCommutative() && valueLess(y, x) {
			x, y = y, x
		}
		k.a, k.b = vn.of(x), vn.of(y)
	case 3:
		k.a, k.b, k.c = vn.of(in.Ops[0]), vn.of(in.Ops[1]), vn.of(in.Ops[2])
	default:
		return k, false
	}
	return k, true
}

// instrKey is the structural key of a pure instruction for CSE/GVN. Vector
// lane counts are small, so the type's Lanes fits the int32.
type instrKey struct {
	a, b, c, callee, lanes int32
	op                     ir.Op
	pred                   ir.CmpPred
	kind                   ir.Kind
}

func (k *instrKey) hash() uint64 {
	h := (uint64(uint32(k.a)) | uint64(uint32(k.b))<<32) * 0x9E3779B97F4A7C15
	h ^= (uint64(uint32(k.c)) | uint64(uint32(k.callee))<<32) * 0xC2B2AE3D27D4EB4F
	h ^= (uint64(uint32(k.lanes)) | uint64(k.op)<<32 | uint64(k.pred)<<40 | uint64(k.kind)<<48) * 0x165667B19E3779F9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

// exprTable is runCSE's scoped expression table: open addressing with linear
// probing from instrKey to an instruction ID. Scopes nest, and a scope pops
// exactly the keys it added, newest first, so a popped key's slot can simply
// be emptied: no key added after it is left to probe past it. Growing
// re-inserts the live keys in the order they were added, which keeps that
// true.
type exprTable struct {
	slots []exprSlot // power-of-two length
	log   []instrKey // live keys, oldest first
}

type exprSlot struct {
	k  instrKey
	id int32 // instruction ID + 1; 0 is an empty slot
}

// reset empties the table. Only the keys still in the log hold slots (a
// pass that panicked mid-walk leaves some), so popping them is enough.
func (t *exprTable) reset() { t.pop(0) }

func (t *exprTable) mark() int { return len(t.log) }

// slotOf returns the index of k's slot in slots, or of the empty slot it
// would take.
func slotOf(slots []exprSlot, k *instrKey) int {
	m := len(slots) - 1
	for i := int(k.hash()) & m; ; i = (i + 1) & m {
		if s := &slots[i]; s.id == 0 || s.k == *k {
			return i
		}
	}
}

// find returns the ID recorded for k, or -1.
func (t *exprTable) find(k instrKey) int {
	if len(t.slots) == 0 {
		return -1
	}
	return int(t.slots[slotOf(t.slots, &k)].id) - 1
}

// add records id for k, which must be absent.
func (t *exprTable) add(k instrKey, id int) {
	if 2*(len(t.log)+1) > len(t.slots) {
		n := max(64, 2*len(t.slots))
		old := t.slots
		t.slots = make([]exprSlot, n)
		for _, lk := range t.log {
			t.slots[slotOf(t.slots, &lk)] = old[slotOf(old, &lk)]
		}
	}
	t.log = append(t.log, k)
	t.slots[slotOf(t.slots, &k)] = exprSlot{k, int32(id) + 1}
}

// pop removes the keys added since mark, newest first.
func (t *exprTable) pop(mark int) {
	for j := len(t.log) - 1; j >= mark; j-- {
		t.slots[slotOf(t.slots, &t.log[j])] = exprSlot{}
	}
	t.log = t.log[:mark]
}

// loadKey identifies a load by its address operand (the very object: a
// constant address is its own pointer, not its value) and its type.
type loadKey struct {
	ptr, lanes int32
	kind       ir.Kind
}

// loadFact is a load whose value is known, with its address operand.
type loadFact struct {
	ptr  ir.Value
	load *ir.Instr
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
	cfg := ir.CFGOf(f)
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
			replaceNow(&fu, c, a)
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
	cfg := ir.CFGOf(f)
	for _, b := range f.Blocks {
		preds := cfg.Preds(b)
		if len(preds) != 2 || b.NumPhis() > 0 {
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
			b.InsertBefore(b.NumPhis(), a)
			replaceNow(&fu, c, a)
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
		if !sameOperand(a.Ops[i], b.Ops[i]) {
			return false
		}
	}
	return true
}

// sameOperand reports whether two operands are one value: equal constants (by
// type and value, float ==) or the same object.
func sameOperand(x, y ir.Value) bool {
	var kx, ky constKey
	cx, okX := x.(*ir.Const)
	if okX {
		kx = constKey{cx.Ty, cx.I, cx.F}
	}
	cy, okY := y.(*ir.Const)
	if okY {
		ky = constKey{cy.Ty, cy.I, cy.F}
	}
	if okX || okY {
		return okX && okY && kx == ky
	}
	return x == y
}
