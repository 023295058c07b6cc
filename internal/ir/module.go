package ir

import (
	"fmt"
	"slices"
	"sync"
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
	// lowered is an opaque slot for a consumer's derived form of the body
	// (the machine keeps its lowered bytecode here). It is published only
	// on a shared body, which never changes again, so the derived form
	// lives exactly as long as the body it came from; cloneFunction never
	// copies it, and ApproxBytes does not charge it.
	lowered atomic.Value
}

// isShared reports whether the function body is COW-shared between modules.
func (f *Function) isShared() bool { return atomic.LoadUint32(&f.shared) == 1 }

// markShared flags the body as COW-shared. Safe under concurrent clones.
func (f *Function) markShared() { atomic.StoreUint32(&f.shared, 1) }

// Shared reports whether the function body is currently COW-shared (exported
// for tests and accounting).
func (f *Function) Shared() bool { return f.isShared() }

// Lowered returns the value last published with KeepLowered, or nil.
func (f *Function) Lowered() any { return f.lowered.Load() }

// KeepLowered publishes v as the body's derived form when the body is
// COW-shared, hence immutable for the rest of its life, and reports whether
// it did. A private body may still be mutated, so nothing is kept on it.
// Every value published on one function must have the same concrete type.
func (f *Function) KeepLowered(v any) bool {
	if !f.isShared() {
		return false
	}
	f.lowered.Store(v)
	return true
}

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// NumInstrs counts the instructions in the function.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += b.length()
	}
	return n
}

// HasAttr reports whether all bits in a are set.
func (f *Function) HasAttr(a FuncAttrs) bool { return f.Attrs&a == a }

// Block is a basic block: a straight-line instruction list ended by a
// terminator.
//
// Edits go through one log. Unlink takes an instruction out of the block at
// once (Parent() is nil from then on) but leaves its entry in Instrs; Insert
// gives an instruction the block as parent at once but only logs where it
// goes. Flush applies both in one compaction and one splice, leaving Instrs
// with exactly the length, order and capacity the same edits made one at a
// time with InsertBefore / RemoveAt would have left: a removal keeps the
// capacity, an insertion grows it as a one-element append at the same running
// length would. A pass that defers edits reads positions only as they stand
// (entries with Parent() != b are unlinked) and flushes before anything reads
// positions again; InsertBefore, RemoveAt, RemoveIf, IndexOf, Append and
// Renumber refuse a block with pending edits. Term, Phis, NumInstrs and the
// def-use index read a pending block as a Flush would leave it.
type Block struct {
	Name   string
	Instrs []*Instr
	parent *Function
	// idx is the block's position in parent.Blocks as of the last Renumber;
	// stale once a pass moves blocks, so readers go through hasBlock.
	idx int32
	// unlinked counts the instructions Unlink took out since the last Flush.
	unlinked int32
	// ins is the insertion log since the last Flush, nil when there is none.
	// Pass-transient, so ApproxBytes leaves it out.
	ins *insertLog
}

// insertLog is a block's pending insertions, ordered by position and, at one
// position, by the order they were logged.
type insertLog struct {
	cap  int // the capacity Instrs has once they are spliced in
	list []pendingInsert
}

// pendingInsert places in before the entry at Instrs[at] (at the end when
// at == len(Instrs)), positions counted as they stood when it was logged.
type pendingInsert struct {
	at int
	in *Instr
}

var insertLogPool = sync.Pool{New: func() any { return new(insertLog) }}

// Parent returns the containing function.
func (b *Block) Parent() *Function { return b.parent }

// pending reports whether b has edits no Flush has applied yet.
func (b *Block) pending() bool { return b.unlinked != 0 || b.ins != nil }

// refusePending panics when b has pending edits: op reads or writes positions.
func (b *Block) refusePending(op string) {
	if b.pending() {
		panic("ir: " + op + " on block " + b.Name + " with pending edits; Flush first")
	}
}

// view returns the block's instructions as a Flush would leave them: Instrs
// itself when nothing is pending, else a copy in buf's storage.
func (b *Block) view(buf *[]*Instr) []*Instr {
	if !b.pending() {
		return b.Instrs
	}
	var list []pendingInsert
	if b.ins != nil {
		list = b.ins.list
	}
	out := (*buf)[:0]
	add := func(in *Instr) {
		if in.parent == b {
			out = append(out, in)
		}
	}
	j := 0
	for r, in := range b.Instrs {
		for ; j < len(list) && list[j].at == r; j++ {
			add(list[j].in)
		}
		add(in)
	}
	for ; j < len(list); j++ {
		add(list[j].in)
	}
	*buf = out
	return out
}

// length returns the number of instructions in the block, pending edits
// applied.
func (b *Block) length() int {
	n := len(b.Instrs) - int(b.unlinked)
	if b.ins != nil {
		n += len(b.ins.list)
	}
	return n
}

// Term returns the block terminator, or nil if the block is unterminated.
func (b *Block) Term() *Instr {
	instrs := b.Instrs
	if b.pending() {
		var buf []*Instr
		instrs = b.view(&buf)
	}
	if len(instrs) == 0 {
		return nil
	}
	last := instrs[len(instrs)-1]
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
	b.refusePending("Append")
	b.guardMutable()
	in.parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// Unlink takes in, an instruction of b, out of the block: in.Parent() is nil
// at once, and its entry leaves Instrs at the next Flush.
func (b *Block) Unlink(in *Instr) {
	if in.parent != b {
		panic("ir: Unlink of an instruction not in block " + b.Name)
	}
	b.guardMutable()
	in.parent = nil
	b.unlinked++
}

// Insert puts in into the block before the entry now at Instrs[at] (at the
// end when at == len(Instrs)), after whatever was already logged there:
// in.Parent() is b at once, and the entry is spliced in at the next Flush.
func (b *Block) Insert(at int, in *Instr) {
	if at < 0 || at > len(b.Instrs) {
		panic(fmt.Sprintf("ir: Insert at %d into block %s of %d entries", at, b.Name, len(b.Instrs)))
	}
	b.guardMutable()
	l := b.ins
	if l == nil {
		l = insertLogPool.Get().(*insertLog)
		l.cap = cap(b.Instrs)
		b.ins = l
	}
	if b.length() == l.cap {
		l.cap = appendCap(l.cap)
	}
	in.parent = b
	k := len(l.list)
	for k > 0 && l.list[k-1].at > at {
		k--
	}
	l.list = slices.Insert(l.list, k, pendingInsert{at, in})
}

// Flush applies the block's pending edits: one in-place compaction of the
// unlinked entries, then one splice of the logged insertions, backward into
// the array or, when the insertions outgrew its capacity, forward into a
// fresh array of the capacity they grew to. A single removal moves the tail
// as RemoveAt's memmove does, slot for slot; a single insertion, as
// InsertBefore's append and copy do.
func (b *Block) Flush() {
	if !b.pending() {
		return
	}
	s := b.Instrs
	var list []pendingInsert
	c := cap(s)
	if b.ins != nil {
		list, c = b.ins.list, b.ins.cap
	}
	dead, w := 0, len(s)
	if b.unlinked > 0 {
		// Re-base each insertion on the compacted positions, dropping those
		// unlinked since they were logged.
		w = 0
		j, live := 0, 0
		keep := func(k int) {
			if list[k].in.parent != b {
				dead++
				return
			}
			list[live] = pendingInsert{w, list[k].in}
			live++
		}
		for r, in := range s {
			for ; j < len(list) && list[j].at == r; j++ {
				keep(j)
			}
			if in.parent != b {
				dead++
				continue
			}
			if w != r {
				s[w] = in
			}
			w++
		}
		for ; j < len(list); j++ {
			keep(j)
		}
		if len(s)-w > 1 {
			clear(s[w:len(s)])
		}
		list = list[:live]
	}
	if dead != int(b.unlinked) {
		panic(fmt.Sprintf("ir: block %s: %d entries out of the block, %d unlinked", b.Name, dead, b.unlinked))
	}
	n := w + len(list)
	if c != cap(s) {
		dst := make([]*Instr, n, c)
		o, prev := 0, 0
		for _, x := range list {
			o += copy(dst[o:], s[prev:x.at])
			dst[o] = x.in
			o++
			prev = x.at
		}
		copy(dst[o:], s[prev:w])
		s = dst
	} else {
		s = s[:n]
		hi := w
		for k := len(list) - 1; k >= 0; k-- {
			at := list[k].at
			copy(s[at+k+1:hi+k+1], s[at:hi])
			s[at+k] = list[k].in
			hi = at
		}
	}
	b.Instrs = s
	b.unlinked = 0
	if l := b.ins; l != nil {
		clear(l.list) // every entry logged since the last Flush
		l.list = l.list[:0]
		b.ins = nil
		insertLogPool.Put(l)
	}
}

// Flush applies the pending edits of every block of f.
func (f *Function) Flush() {
	for _, b := range f.Blocks {
		b.Flush()
	}
}

// appendCaps memoizes appendCap for small capacities.
var appendCaps [1024]atomic.Int32

// appendCap returns the capacity append gives an []*Instr of capacity c that
// it has to grow by one element: the runtime's growth policy, measured rather
// than restated.
func appendCap(c int) int {
	if c < len(appendCaps) {
		if v := appendCaps[c].Load(); v != 0 {
			return int(v)
		}
	}
	g := cap(append(make([]*Instr, c), nil))
	if c < len(appendCaps) {
		appendCaps[c].Store(int32(g))
	}
	return g
}

// InsertBefore inserts in before position idx: a one-edit Insert and Flush.
func (b *Block) InsertBefore(idx int, in *Instr) {
	b.refusePending("InsertBefore")
	if idx < 0 || idx > len(b.Instrs) {
		// Fail with the very panic the per-edit memmove raised.
		s := append(b.Instrs, nil)
		copy(s[idx+1:], s[idx:])
	}
	b.Insert(idx, in)
	b.Flush()
}

// RemoveAt deletes the instruction at position idx: a one-edit Unlink and
// Flush.
func (b *Block) RemoveAt(idx int) {
	b.refusePending("RemoveAt")
	b.Unlink(b.Instrs[idx])
	b.Flush()
}

// RemoveIf deletes every instruction dead reports true for, in one in-place
// compaction: the survivors keep their order, and dead sees each instruction
// once, in block order. Returns the number removed; a block it removes
// nothing from is not written to.
func (b *Block) RemoveIf(dead func(*Instr) bool) int {
	b.refusePending("RemoveIf")
	for _, in := range b.Instrs {
		if dead(in) {
			b.Unlink(in)
		}
	}
	removed := int(b.unlinked)
	b.Flush()
	return removed
}

// IndexOf returns the position of in within the block, or -1.
func (b *Block) IndexOf(in *Instr) int {
	b.refusePending("IndexOf")
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	var out, buf []*Instr
	for _, in := range b.view(&buf) {
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
// shared — Module.Clone guarantees exactly that. A block with pending edits
// has no positions to number: Flush first.
func (f *Function) Renumber() int {
	id := 0
	for bi, b := range f.Blocks {
		b.refusePending("Renumber")
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

// InstrsByID returns f's instructions in ID order, reusing tab's storage. A
// private body is renumbered first; a COW-shared body is dense by Clone's
// invariant and only read. Together with hasInstr / hasBlock this is how
// every reader numbers a body and proves a reference local: tab[in.ID] == in
// holds for an instruction of f only, whatever ID a removed or foreign
// instruction still carries.
func (f *Function) InstrsByID(tab []*Instr) []*Instr {
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
// (tab = f.InstrsByID): an identity check, so a stale ID on an instruction a
// pass removed or spliced in from another function never aliases a local one.
// Nil is not in any function, for Verify to report rather than trip over.
func hasInstr(tab []*Instr, in *Instr) bool {
	return in != nil && uint(in.ID) < uint(len(tab)) && tab[in.ID] == in
}

// hasBlock reports whether b is a block of f, by the same identity check on
// the block index. Valid after Renumber / InstrsByID, like hasInstr.
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
