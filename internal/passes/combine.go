package passes

import (
	"slices"

	"repro/internal/ir"
)

// combineConfig selects the pattern families a combine-style pass applies.
type combineConfig struct {
	fold       bool // constant folding + identity simplification
	strength   bool // mul-by-power-of-two -> shift, x+x -> x<<1
	widen      bool // canonicalise extension chains upward (Fig 5.1c)
	constReass bool // (x op c1) op c2 -> x op (c1 op c2)
	maxRounds  int
}

// runCombine applies peephole rewrites until fixpoint (bounded), returning
// the number of combined instructions.
func runCombine(m *ir.Module, f *ir.Function, cfg combineConfig) int {
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
						replaceWithValue(&fu, in, c)
						changed++
						continue
					}
					if v := simplifyIdentity(in); v != nil {
						replaceWithValue(&fu, in, v)
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
				if cfg.widen && widenExtChain(&fu, b, &i) {
					changed++
					continue
				}
			}
			b.Flush()
		}
		combined += changed
		if changed == 0 {
			break
		}
	}
	if combined > 0 {
		// Like LLVM's instcombine, erase instructions orphaned by rewrites.
		fu.done()
		removeDeadInstrs(m, f, true)
	}
	return combined
}

// strengthReduce rewrites expensive scalar ops into cheaper equivalents in
// place (the instruction object is mutated, uses stay valid).
func strengthReduce(fu *funcUses, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpMul:
		if in.Ty.IsVector() {
			return false
		}
		if c, ok := constOp(in, 1); ok {
			if sh, isP2 := isPowerOfTwo(c.I); isP2 && sh > 0 {
				in.Op = ir.OpShl
				fu.set(in, 1, ir.ConstInt(in.Ty, sh))
				return true
			}
		}
		if c, ok := constOp(in, 0); ok {
			if sh, isP2 := isPowerOfTwo(c.I); isP2 && sh > 0 {
				in.Op = ir.OpShl
				fu.set(in, 0, in.Ops[1])
				fu.set(in, 1, ir.ConstInt(in.Ty, sh))
				return true
			}
		}
	case ir.OpUDiv:
		if c, ok := constOp(in, 1); ok {
			if sh, isP2 := isPowerOfTwo(c.I); isP2 && sh > 0 {
				in.Op = ir.OpLShr
				fu.set(in, 1, ir.ConstInt(in.Ty, sh))
				return true
			}
		}
	case ir.OpSRem:
		// x srem 2^k with provably non-negative x -> and. We only know
		// non-negativity for zext results.
		if c, ok := constOp(in, 1); ok {
			if _, isP2 := isPowerOfTwo(c.I); isP2 {
				if src, ok := in.Ops[0].(*ir.Instr); ok && src.Op == ir.OpZExt {
					in.Op = ir.OpAnd
					fu.set(in, 1, ir.ConstInt(in.Ty, c.I-1))
					return true
				}
			}
		}
	case ir.OpAdd:
		if in.Ty.IsVector() {
			return false
		}
		if in.Ops[0] == in.Ops[1] {
			in.Op = ir.OpShl
			fu.set(in, 1, ir.ConstInt(in.Ty, 1))
			return true
		}
	}
	return false
}

// reassocConst rewrites (x op c1) op c2 into x op fold(c1,c2) for associative
// commutative ops when the inner instruction has a single use.
func reassocConst(fu *funcUses, in *ir.Instr) bool {
	if !in.Op.IsAssociative() || in.Ty.IsVector() {
		return false
	}
	c2, ok := constOp(in, 1)
	if !ok {
		return false
	}
	inner, ok := in.Ops[0].(*ir.Instr)
	if !ok || inner.Op != in.Op || fu.get().Count(inner) != 1 {
		return false
	}
	c1, ok := inner.ConstOperand(1)
	if !ok {
		return false
	}
	tmp := &ir.Instr{Op: in.Op, Ty: in.Ty, Ops: []ir.Value{c1, c2}}
	folded := foldConst(tmp)
	if folded == nil {
		return false
	}
	fu.set(in, 0, inner.Ops[0])
	fu.set(in, 1, folded)
	return true
}

// widenExtChain canonicalises arithmetic on sign-extended narrow values to
// the widest observed destination type. This reproduces the paper's Fig 5.1c
// interaction: `sext i16->i32; mul i32; sext i32->i64; add i64` becomes
// `sext i16->i64; mul i64 (widened); add i64`, and the FlagWidened marker
// later defeats SLP's profitability check on the reduction.
//
// The instruction is b.Instrs[*i], and the caller's scan goes on at *i+1. The
// edits are logged (the new sexts go before the narrow binop, which is
// unlinked), and *i moves so that the scan visits what it visited when each
// edit shifted the block at once: the successor of the sext's old position.
func widenExtChain(fu *funcUses, b *ir.Block, i *int) bool {
	in := b.Instrs[*i]
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
			at := slices.Index(b.Instrs, inner)
			if at < 0 {
				return false
			}
			wide := in.Ty
			added := 0
			mk := func(v ir.Value) ir.Value {
				if c, ok := v.(*ir.Const); ok {
					return ir.ConstInt(wide, c.I)
				}
				se := &ir.Instr{Op: ir.OpSExt, Ty: wide, Ops: []ir.Value{v}, Flags: ir.FlagWidened}
				b.Insert(at, se)
				fu.inserted(se)
				added++
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
			fu.unlink(inner)
			if at < *i {
				// The sext moved by added-1 places; everything after it is
				// still in place and linked.
				*i += 1 - added
			} else {
				// The binop came after its user (invalid IR): settle the
				// block and resume at the sext's own position.
				b.Flush()
				*i = b.IndexOf(in)
			}
			return true
		}
	}
	return false
}

func init() {
	register("instcombine", "canonicalising peephole combiner",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				n := runCombine(m, f, combineConfig{
					fold: true, strength: true, widen: true, constReass: true,
					maxRounds: 8,
				})
				st.Add("instcombine.NumCombined", n)
			})
		})

	register("aggressive-instcombine", "expensive combine patterns",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				n := runCombine(m, f, combineConfig{
					fold: true, strength: true, widen: true, constReass: true,
					maxRounds: 16,
				})
				n += foldShiftRoundTrips(f)
				st.Add("aggressive-instcombine.NumCombined", n)
			})
		})

	register("instsimplify", "fold to existing values only",
		func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("instsimplify.NumSimplified", runInstSimplify(f))
			})
		})
}

// runInstSimplify performs only fold-to-existing-value rewrites.
func runInstSimplify(f *ir.Function) int {
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
				replaceWithValue(&fu, in, c)
				n++
				continue
			}
			if v := simplifyIdentity(in); v != nil {
				replaceWithValue(&fu, in, v)
				n++
			}
		}
	}
	return n
}

// foldShiftRoundTrips rewrites (x << c) >> c (logical) into x & mask.
func foldShiftRoundTrips(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpLShr || in.Ty.IsVector() {
				continue
			}
			c2, ok := constOp(in, 1)
			if !ok {
				continue
			}
			inner, ok := in.Ops[0].(*ir.Instr)
			if !ok || inner.Op != ir.OpShl {
				continue
			}
			c1, ok := inner.ConstOperand(1)
			if !ok || c1.I != c2.I || c1.I <= 0 || c1.I >= 63 {
				continue
			}
			bits := in.Ty.Kind.Bits()
			if bits > 64 || int(c1.I) >= bits {
				continue
			}
			mask := int64(1)<<uint(bits-int(c1.I)) - 1
			in.Op = ir.OpAnd
			in.Ops = []ir.Value{inner.Ops[0], ir.ConstInt(in.Ty, mask)}
			n++
		}
	}
	return n
}
