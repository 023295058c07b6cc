package ir

import (
	"fmt"
	"slices"
)

// Verify checks structural and dominance invariants of the module. Passes are
// required to keep modules verifiable; a verification failure after a pass is
// a compiler bug, which the pass manager surfaces as an error.
func Verify(m *Module) error {
	names := make(map[string]bool)
	for _, f := range m.Funcs {
		if names[f.Name] {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		names[f.Name] = true
		if f.IsDecl {
			continue
		}
		if err := verifyFunction(m, f); err != nil {
			return fmt.Errorf("ir: function %s: %w", f.Name, err)
		}
	}
	return nil
}

func verifyFunction(m *Module, f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	// Numbers the body (a private one is renumbered, which no pass can see:
	// every ID-ordered decision renumbers first); hasInstr / hasBlock below
	// are "defined in this function" / "a block of this function".
	tab := f.InstrsByID(nil)
	for _, b := range f.Blocks {
		if b.parent != f {
			return fmt.Errorf("block %s has wrong parent", b.Name)
		}
		t := b.Term()
		if t == nil {
			return fmt.Errorf("block %s is not terminated", b.Name)
		}
		for i, in := range b.Instrs {
			if in.parent != b {
				return fmt.Errorf("instr in %s has wrong parent", b.Name)
			}
			if in.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("terminator %s in middle of block %s", in.Op, b.Name)
			}
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return fmt.Errorf("phi not at start of block %s", b.Name)
			}
			if in.Op == OpAlloca && (in.AllocTy.Kind == Void || in.NAlloc < 1) {
				return fmt.Errorf("alloca in %s allocates %d x %s", b.Name, in.NAlloc, in.AllocTy)
			}
			for _, tb := range in.Blocks {
				if !f.hasBlock(tb) {
					return fmt.Errorf("instr %s in %s references foreign block", in.Op, b.Name)
				}
			}
		}
	}
	cfg := BuildCFG(f)
	reach := cfg.Reachable()
	// Phi nodes must have exactly one incoming per CFG predecessor.
	for _, b := range f.Blocks {
		if !reach.Has(b) {
			continue
		}
		preds := cfg.Preds(b)
		for _, phi := range b.phiPrefix() {
			if len(phi.Ops) != len(phi.Blocks) {
				return fmt.Errorf("phi in %s: op/block arity mismatch", b.Name)
			}
			if len(phi.Ops) != len(preds) {
				return fmt.Errorf("phi in %s: %d incoming, %d preds", b.Name, len(phi.Ops), len(preds))
			}
			for _, p := range preds {
				if !slices.Contains(phi.Blocks, p) {
					return fmt.Errorf("phi in %s: missing incoming for pred %s", b.Name, p.Name)
				}
			}
		}
	}
	// Operand sanity: instruction operands must be defined in this function;
	// call targets must exist (module-level or builtin).
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for oi, op := range in.Ops {
				switch v := op.(type) {
				case nil:
					return fmt.Errorf("%s in %s: nil operand %d", in.Op, b.Name, oi)
				case *Instr:
					if !hasInstr(tab, v) {
						return fmt.Errorf("%s in %s: operand %d defined outside function", in.Op, b.Name, oi)
					}
				case *Param:
					found := false
					for _, p := range f.Params {
						if p == v {
							found = true
							break
						}
					}
					if !found {
						return fmt.Errorf("%s in %s: foreign parameter operand", in.Op, b.Name)
					}
				}
			}
			if in.Op == OpCall && m != nil && !IsBuiltin(in.Callee) {
				if m.Func(in.Callee) == nil {
					return fmt.Errorf("call to undefined function %q", in.Callee)
				}
			}
		}
	}
	// Dominance: every non-phi use must be dominated by its definition.
	dt := BuildDomTree(cfg)
	for _, b := range f.Blocks {
		if !reach.Has(b) {
			continue
		}
		for _, in := range b.Instrs {
			for oi, op := range in.Ops {
				def, ok := op.(*Instr)
				if !ok || def.parent == nil || !reach.Has(def.parent) {
					continue
				}
				if in.Op == OpPhi {
					// Value must dominate the incoming edge's source block.
					from := in.Blocks[oi]
					if def.parent != from && !dt.Dominates(def.parent, from) {
						return fmt.Errorf("phi in %s: incoming %d not dominating edge from %s", b.Name, oi, from.Name)
					}
					continue
				}
				if def.parent == b {
					if def.ID >= in.ID { // same block: ID order is position order
						return fmt.Errorf("%s in %s: use before def in block", in.Op, b.Name)
					}
				} else if !dt.Dominates(def.parent, b) {
					return fmt.Errorf("%s in %s: def in %s does not dominate use", in.Op, b.Name, def.parent.Name)
				}
			}
		}
	}
	return nil
}

// builtinFuncs are runtime-provided functions handled by the interpreter.
var builtinFuncs = map[string]bool{
	"sim.out.i64":  true, // append an i64 to the program output stream
	"sim.out.f64":  true, // append an f64 to the program output stream
	"sim.memset":   true, // (ptr, val i64, n i64)
	"sim.memcpy":   true, // (dst, src, n i64)
	"sim.abs.i64":  true,
	"sim.min.i64":  true,
	"sim.max.i64":  true,
	"sim.sqrt":     true,
	"sim.exp":      true,
	"sim.log":      true,
	"sim.prefetch": true, // (ptr) warm the cache line containing ptr
	"sim.memcmp":   true, // (p, q, n i64) -> i64 1 if equal else 0
}

// IsBuiltin reports whether name is a runtime-provided builtin.
func IsBuiltin(name string) bool { return builtinFuncs[name] }

// BuiltinHasSideEffects reports whether the builtin writes memory or output.
func BuiltinHasSideEffects(name string) bool {
	switch name {
	case "sim.out.i64", "sim.out.f64", "sim.memset", "sim.memcpy":
		return true
	}
	return false
}

// BuiltinIsPure reports whether the builtin depends only on its arguments.
func BuiltinIsPure(name string) bool {
	switch name {
	case "sim.abs.i64", "sim.min.i64", "sim.max.i64", "sim.sqrt", "sim.exp", "sim.log":
		return true
	}
	return false
}
