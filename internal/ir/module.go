package ir

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// FuncAttrs carries interprocedural attributes discovered by analyses.
type FuncAttrs uint8

// Function attributes.
const (
	// AttrReadNone: the function reads no memory (pure). Set by
	// function-attrs; enables CSE/GVN of calls.
	AttrReadNone FuncAttrs = 1 << iota
	// AttrReadOnly: reads but never writes memory.
	AttrReadOnly
	// AttrInternal: not visible outside the module (eligible for globaldce
	// and dead-argument elimination).
	AttrInternal
	// AttrAlwaysInline: must be inlined by the always-inline pass.
	AttrAlwaysInline
	// AttrNoInline: never inline.
	AttrNoInline
)

// Function is a single function: parameters, a return type and blocks.
// Blocks[0] is the entry block.
type Function struct {
	Name    string
	Params  []*Param
	RetTy   Type
	Blocks  []*Block
	Attrs   FuncAttrs
	IsDecl  bool // declaration only (external), no body
	nextTmp int
	// shared is set (atomically) when the function body is referenced by
	// more than one Module after a copy-on-write Module.Clone. Shared bodies
	// are immutable: the block mutators panic on them, and MaterializeModule
	// replaces them with private copies before a pass may run.
	shared uint32
}

// isShared reports whether the function body is COW-shared between modules.
func (f *Function) isShared() bool { return atomic.LoadUint32(&f.shared) == 1 }

// markShared flags the body as COW-shared. Safe under concurrent clones.
func (f *Function) markShared() { atomic.StoreUint32(&f.shared, 1) }

// Shared reports whether the function body is currently COW-shared (exported
// for tests and accounting).
func (f *Function) Shared() bool { return f.isShared() }

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// NumInstrs counts the instructions in the function.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// HasAttr reports whether all bits in a are set.
func (f *Function) HasAttr(a FuncAttrs) bool { return f.Attrs&a == a }

// Block is a basic block: a straight-line instruction list ended by a
// terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	parent *Function
	// idx is the block's position in parent.Blocks as of the last Renumber;
	// stale once a pass moves blocks, so readers go through hasBlock.
	idx int32
}

// Parent returns the containing function.
func (b *Block) Parent() *Function { return b.parent }

// Term returns the block terminator, or nil if the block is unterminated.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

// guardMutable panics when the block belongs to a COW-shared function body,
// turning silent corruption of a cached snapshot into a loud failure.
func (b *Block) guardMutable() {
	if b.parent != nil && b.parent.isShared() {
		panic("ir: mutating a COW-shared function body; call MaterializeModule first")
	}
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	b.guardMutable()
	in.parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in before position idx.
func (b *Block) InsertBefore(idx int, in *Instr) {
	b.guardMutable()
	in.parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// RemoveAt deletes the instruction at position idx.
func (b *Block) RemoveAt(idx int) {
	b.guardMutable()
	b.Instrs[idx].parent = nil
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}

// RemoveIf deletes every instruction dead reports true for, in one in-place
// compaction: the survivors keep their order, and dead sees each instruction
// once, in block order. Returns the number removed; a block it removes
// nothing from is not written to.
func (b *Block) RemoveIf(dead func(*Instr) bool) int {
	kept := slices.DeleteFunc(b.Instrs, func(in *Instr) bool {
		if !dead(in) {
			return false
		}
		b.guardMutable()
		in.parent = nil
		return true
	})
	removed := len(b.Instrs) - len(kept)
	if removed > 0 {
		b.Instrs = kept
	}
	return removed
}

// IndexOf returns the position of in within the block, or -1.
func (b *Block) IndexOf(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	var out []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		out = append(out, in)
	}
	return out
}

// Module is a single compilation unit: an ordered list of functions plus
// global data. A multi-file program is a set of modules (see internal/bench).
type Module struct {
	Name    string
	Funcs   []*Function
	Globals []*Global
	// Meta records module-level facts established by analysis passes
	// (e.g. "builtins-pure" set by inferattrs and consulted by GVN).
	Meta map[string]bool
	// TargetVecWidth64 is the SIMD width (64-bit lanes) of the compilation
	// target, consulted by the vectorisers' profitability models. Zero means
	// the conservative default of 2 (128-bit SIMD).
	TargetVecWidth64 int
}

// VecWidth64 returns the target SIMD width in 64-bit lanes.
func (m *Module) VecWidth64() int {
	if m.TargetVecWidth64 <= 0 {
		return 2
	}
	return m.TargetVecWidth64
}

// VecLanesFor returns how many lanes of kind k one SIMD op processes.
func (m *Module) VecLanesFor(k Kind) int {
	w := m.VecWidth64()
	if k.Bits() <= 32 && k != Ptr {
		return w * 2
	}
	return w
}

// SetMeta records a module-level fact.
func (m *Module) SetMeta(key string) {
	if m.Meta == nil {
		m.Meta = make(map[string]bool)
	}
	m.Meta[key] = true
}

// HasMeta reports whether a module-level fact was established.
func (m *Module) HasMeta(key string) bool { return m.Meta[key] }

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumInstrs counts instructions across all function bodies.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// RemoveFunc deletes the named function from the module.
func (m *Module) RemoveFunc(name string) {
	for i, f := range m.Funcs {
		if f.Name == name {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			return
		}
	}
}

// Renumber assigns every instruction its position in block order as ID,
// from zero, and every block its position in f.Blocks, and returns the
// instruction count. It is the one numbering of a function body: clone,
// fingerprint, verify, the printer, machine.Link and the lowerer all index by
// it. Writes are skip-equal: renumbering a dense body only reads, so
// concurrent renumbers of a COW-shared body (Module.Clone from several
// goroutines) are race-free provided it was renumbered once before it was
// shared — Module.Clone guarantees exactly that.
func (f *Function) Renumber() int {
	id := 0
	for bi, b := range f.Blocks {
		if b.idx != int32(bi) {
			b.idx = int32(bi)
		}
		for _, in := range b.Instrs {
			if in.ID != id {
				in.ID = id
			}
			id++
		}
	}
	return id
}

// Renumber renumbers every function of the module.
func (m *Module) Renumber() {
	for _, f := range m.Funcs {
		f.Renumber()
	}
}

// instrsByID returns f's instructions in ID order, reusing tab's storage. A
// private body is renumbered first; a COW-shared body is dense by Clone's
// invariant and only read. Together with hasInstr / hasBlock this is how
// every reader in the package numbers a body and proves a reference local.
func (f *Function) instrsByID(tab []*Instr) []*Instr {
	shared := f.isShared()
	var n int
	if shared {
		n = f.NumInstrs()
	} else {
		n = f.Renumber()
	}
	tab = slices.Grow(tab[:0], n)
	for bi, b := range f.Blocks {
		dense := b.idx == int32(bi)
		for _, in := range b.Instrs {
			dense = dense && in.ID == len(tab)
			tab = append(tab, in)
		}
		if shared && !dense {
			panic(fmt.Sprintf("ir: function %s has a non-dense numbering on a COW-shared body (missing renumber before sharing)", f.Name))
		}
	}
	return tab
}

// hasInstr reports whether in is an instruction of the function tab numbers
// (tab = f.instrsByID): an identity check, so a stale ID on an instruction a
// pass removed or spliced in from another function never aliases a local one.
// Nil is not in any function, for Verify to report rather than trip over.
func hasInstr(tab []*Instr, in *Instr) bool {
	return in != nil && uint(in.ID) < uint(len(tab)) && tab[in.ID] == in
}

// hasBlock reports whether b is a block of f, by the same identity check on
// the block index. Valid after Renumber / instrsByID, like hasInstr.
func (f *Function) hasBlock(b *Block) bool {
	return b != nil && uint(b.idx) < uint(len(f.Blocks)) && f.Blocks[b.idx] == b
}

// Clone returns a copy-on-write copy of the module: a fresh Module wrapper
// (own Funcs/Globals slices, deep-copied Meta) whose function bodies and
// globals are shared with m. Both m and the clone see their shared bodies
// flagged; the first pass to run on either side goes through
// MaterializeModule, which swaps in private deep copies. Reads (printing,
// fingerprinting, verification, interpretation) work directly on shared
// bodies.
//
// Clone renumbers m before sharing, with skip-equal writes, so cloning an
// already-shared module concurrently from several goroutines is safe.
func (m *Module) Clone() *Module {
	out := &Module{Name: m.Name, TargetVecWidth64: m.TargetVecWidth64}
	if m.Meta != nil {
		out.Meta = make(map[string]bool, len(m.Meta))
		for k, v := range m.Meta {
			out.Meta[k] = v
		}
	}
	m.Renumber()
	out.Globals = make([]*Global, len(m.Globals))
	copy(out.Globals, m.Globals)
	out.Funcs = make([]*Function, len(m.Funcs))
	for i, f := range m.Funcs {
		f.markShared()
		out.Funcs[i] = f
	}
	cowClones.Add(1)
	return out
}

// CloneFunction deep-copies a single function (globals are shared).
func CloneFunction(f *Function) *Function {
	return cloneFunction(f, nil)
}

// The three scans below are the slow oracle of the Uses index and serve the
// inliner's cross-function rewrites, where no index of the target exists.
// They resolve v's concrete type once and compare pointers: an interface
// compare per operand is a runtime call.

// ReplaceAllUses rewrites every use of old as new throughout the function.
func ReplaceAllUses(f *Function, old, new Value) int {
	n := 0
	scanUses(f, old, func(in *Instr, slot int) bool {
		in.Ops[slot] = new
		n++
		return true
	})
	return n
}

// HasUses reports whether v is used by any instruction in f.
func HasUses(f *Function, v Value) bool {
	found := false
	scanUses(f, v, func(*Instr, int) bool {
		found = true
		return false
	})
	return found
}

// CountUses returns the number of operand slots referencing v.
func CountUses(f *Function, v Value) int {
	n := 0
	scanUses(f, v, func(*Instr, int) bool {
		n++
		return true
	})
	return n
}

// scanUses calls fn for every operand slot of f holding v, in block,
// instruction and slot order, until fn returns false.
func scanUses(f *Function, v Value, fn func(in *Instr, slot int) bool) {
	switch d := v.(type) {
	case *Instr:
		scanUsesOf(f, d, fn)
	case *Param:
		scanUsesOf(f, d, fn)
	case *Global:
		scanUsesOf(f, d, fn)
	case *Const:
		scanUsesOf(f, d, fn)
	}
}

func scanUsesOf[T interface {
	comparable
	Value
}](f *Function, d T, fn func(in *Instr, slot int) bool) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for slot, op := range in.Ops {
				if p, ok := op.(T); ok && p == d && !fn(in, slot) {
					return
				}
			}
		}
	}
}

// AttachBlock sets f as the parent of a block constructed outside the
// Builder (used by CFG-restructuring passes). The caller is responsible for
// appending the block to f.Blocks.
func AttachBlock(b *Block, f *Function) { b.parent = f }
