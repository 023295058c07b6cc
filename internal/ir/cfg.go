package ir

import (
	"math/bits"
	"slices"
)

// CFG holds predecessor/successor relations for a function at a moment in
// time. BuildCFG always builds a fresh one; CFGOf reuses the one kept in the
// function's analysis slot while it is still current (see CFGOf).
//
// The graph is indexed by Block.idx: BuildCFG re-indexes the function's
// blocks and keeps its own copy of the block list, and every query proves
// membership by identity (blocks[b.idx] == b). A block a pass adds after the
// build is therefore "not in this CFG" — no predecessors, no successors, in
// no loop, not reachable — and a block removed from f.Blocks keeps answering
// as of the build. The one rule: a CFG (and the DomTree, LoopInfo and
// BlockSets derived from it) answers for the block list it was built from,
// so a pass that inserts, removes or reorders blocks must stop querying it
// once anything re-indexes the function — a later BuildCFG, Renumber or
// Verify of the same function. Appending blocks moves no index.
type CFG struct {
	F      *Function
	blocks []*Block // f.Blocks as of the build
	// The adjacency lists are slices of edges: block i's successors are
	// edges[succOff[i]:succOff[i+1]], its predecessors the same by predOff.
	edges            []*Block
	succOff, predOff []int32
	// ops[i] is block i's terminator opcode as of the build, -1 for none:
	// with the block list and the successor lists, all the three builders
	// read of the function (FindLoops' preheader test reads the opcode).
	ops []int32
	// ReversePostOrder's result once computed (nil before), in rpoBuf, and its
	// DFS scratch, three per block; all carved by BuildCFG, since nearly
	// every CFG is asked for its order.
	rpo, rpoBuf []*Block
	scratch     []int32
	// The dominator tree and loops DomOf and LoopsOf derived from this CFG,
	// nil until asked for.
	dom   *DomTree
	loops *LoopInfo
}

// BuildCFG computes the control-flow graph of f. The block list and the
// adjacency lists are carved out of one backing array sized by a counting
// pre-pass, with int32 offsets instead of a slice header per list: CFGs are
// rebuilt after nearly every pass, so their bytes and allocation count
// dominate the compile pipeline's. Like Renumber, the re-index is
// skip-equal, so building the CFG of a COW-shared (hence dense) body only
// reads it.
func BuildCFG(f *Function) *CFG {
	n := len(f.Blocks)
	total := 0
	for bi, b := range f.Blocks {
		if b.idx != int32(bi) {
			b.idx = int32(bi)
		}
		if t := b.Term(); t != nil {
			total += len(t.Blocks)
		}
	}
	back := make([]*Block, 2*n+2*total)
	nums := make([]int32, 6*n+2)
	c := &CFG{F: f, blocks: back[:n:n], rpoBuf: back[n : 2*n : 2*n], edges: back[2*n:],
		succOff: nums[: n+1 : n+1], predOff: nums[n+1 : 2*n+2 : 2*n+2],
		scratch: nums[2*n+2 : 5*n+2 : 5*n+2], ops: nums[5*n+2:]}
	copy(c.blocks, f.Blocks)
	// Successor lists, counting each block's predecessors on the way.
	predN := c.scratch[2*n:]
	off := 0
	for bi, b := range c.blocks {
		c.succOff[bi] = int32(off)
		c.ops[bi] = -1
		if t := b.Term(); t != nil {
			c.ops[bi] = int32(t.Op)
			off += copy(c.edges[off:], t.Blocks)
		}
		for _, s := range c.edges[c.succOff[bi]:off] {
			if si, ok := c.index(s); ok {
				predN[si]++
			}
		}
	}
	c.succOff[n] = int32(off)
	// Predecessor lists: offsets from the counts, then fill in block order
	// of the predecessor, predN[i] turning into block i's write cursor.
	for bi, k := range predN {
		c.predOff[bi] = int32(off)
		predN[bi] = int32(off)
		off += int(k)
	}
	c.predOff[n] = int32(off)
	for bi, b := range c.blocks {
		for _, s := range c.succsAt(bi) {
			if si, ok := c.index(s); ok {
				c.edges[predN[si]] = b
				predN[si]++
			}
		}
	}
	return c
}

// analysesChecked, set by tests only, sees every analysis slot CFGOf, DomOf
// and LoopsOf reuse: its CFG, and the dominator tree and loops derived from
// it so far (nil where none has been).
var analysesChecked func(f *Function, c *CFG, dt *DomTree, li *LoopInfo)

// SetAnalysesChecked installs fn as the observer of every reused analysis
// slot (tests only) and returns a function restoring the previous one.
func SetAnalysesChecked(fn func(f *Function, c *CFG, dt *DomTree, li *LoopInfo)) (restore func()) {
	prev := analysesChecked
	analysesChecked = fn
	return func() { analysesChecked = prev }
}

// CFGOf returns the CFG of f as it is now: the one in f's analysis slot while
// it is current, else a fresh build, which then takes the slot. A COW-shared
// body may be read by several goroutines, so it gets a fresh build and its
// slot is neither read nor written. The index validity rule of CFG holds
// unchanged: a pass that changes control flow gets a new CFG at its next
// query, and must stop querying the old one once anything re-indexes the
// function.
func CFGOf(f *Function) *CFG {
	if f.isShared() {
		return BuildCFG(f)
	}
	if c := f.cfg; c != nil && c.current() {
		if analysesChecked != nil {
			analysesChecked(f, c, c.dom, c.loops)
		}
		return c
	}
	f.cfg = BuildCFG(f)
	return f.cfg
}

// DomOf is CFGOf plus the dominator tree over that CFG, built at the first
// query and kept with it.
func DomOf(f *Function) (*CFG, *DomTree) {
	c := CFGOf(f)
	if c.dom == nil {
		c.dom = BuildDomTree(c)
	}
	return c, c.dom
}

// LoopsOf is DomOf plus the loops, built at the first query and kept with
// the CFG.
func LoopsOf(f *Function) (*CFG, *DomTree, *LoopInfo) {
	c, dt := DomOf(f)
	if c.loops == nil {
		c.loops = FindLoops(c, dt)
	}
	return c, dt, c.loops
}

// current reports whether c still describes its function: f.Blocks is c's
// block list element by element, and every block ends in a terminator of the
// opcode and with the successor list recorded at the build — exactly the
// input of BuildCFG, BuildDomTree and FindLoops, so a current CFG and what
// was derived from it answer as fresh builds would. Like BuildCFG it
// re-indexes the blocks, skip-equal.
func (c *CFG) current() bool {
	if len(c.F.Blocks) != len(c.blocks) {
		return false
	}
	for i, b := range c.F.Blocks {
		if b != c.blocks[i] {
			return false
		}
		if b.idx != int32(i) {
			b.idx = int32(i)
		}
		t := b.Term()
		if t == nil {
			if c.ops[i] >= 0 {
				return false
			}
			continue
		}
		if int32(t.Op) != c.ops[i] || !slices.Equal(t.Blocks, c.succsAt(i)) {
			return false
		}
	}
	return true
}

// DropAnalyses empties the analysis slots of m's private bodies, so nothing
// a pass built outlives the build it ran in.
func DropAnalyses(m *Module) {
	for _, f := range m.Funcs {
		if !f.isShared() {
			f.cfg = nil
		}
	}
}

func (c *CFG) succsAt(i int) []*Block {
	lo, hi := c.succOff[i], c.succOff[i+1]
	return c.edges[lo:hi:hi]
}

func (c *CFG) predsAt(i int) []*Block {
	lo, hi := c.predOff[i], c.predOff[i+1]
	return c.edges[lo:hi:hi]
}

// index returns b's position in the block list c was built from, and whether
// b is one of those blocks at all.
func (c *CFG) index(b *Block) (int, bool) {
	if b != nil {
		if i := int(b.idx); uint(i) < uint(len(c.blocks)) && c.blocks[i] == b {
			return i, true
		}
		if raceEnabled {
			c.checkAbsent(b)
		}
	}
	return 0, false
}

// at is index for a block the caller knows to be in c.
func (c *CFG) at(b *Block) int32 {
	i, ok := c.index(b)
	if !ok {
		panic("ir: analysis over a stale CFG: function " + c.F.Name + " was re-indexed since BuildCFG")
	}
	return int32(i)
}

// checkAbsent panics when b is a block of c after all, which means the
// function was re-indexed behind c (see the rule on CFG). Race builds only.
func (c *CFG) checkAbsent(b *Block) {
	for _, x := range c.blocks {
		if x == b {
			panic("ir: query on a stale CFG: function " + c.F.Name + " was re-indexed after its blocks moved")
		}
	}
}

// Preds returns b's predecessors, in block order of the predecessor and once
// per edge; nil for a block that is not in the CFG. Read-only.
func (c *CFG) Preds(b *Block) []*Block {
	if i, ok := c.index(b); ok {
		return c.predsAt(i)
	}
	return nil
}

// Succs returns b's successors in terminator order as of the build; nil for
// a block that is not in the CFG. Read-only.
func (c *CFG) Succs(b *Block) []*Block {
	if i, ok := c.index(b); ok {
		return c.succsAt(i)
	}
	return nil
}

// ReversePostOrder returns the blocks of f in reverse post-order from entry.
// Unreachable blocks are omitted. The slice is computed once and shared:
// read-only.
func (c *CFG) ReversePostOrder() []*Block {
	n := len(c.blocks)
	if c.rpo != nil || n == 0 {
		return c.rpo
	}
	// Iterative DFS visiting successors in order, as the recursive form
	// would: stack[k] is a block index, next[k] its next successor to try.
	rpo := c.rpoBuf
	stack, next, seen := c.scratch[:n], c.scratch[n:2*n], c.scratch[2*n:]
	clear(seen) // BuildCFG counted predecessors here
	seen[0] = 1
	stack[0], next[0] = 0, 0
	top, at := 0, n
	for top >= 0 {
		bi := stack[top]
		ss := c.succsAt(int(bi))
		if int(next[top]) == len(ss) {
			at--
			rpo[at] = c.blocks[bi]
			top--
			continue
		}
		s := ss[next[top]]
		next[top]++
		if si, ok := c.index(s); ok && seen[si] == 0 {
			seen[si] = 1
			top++
			stack[top], next[top] = int32(si), 0
		}
	}
	c.rpo = rpo[at:]
	return c.rpo
}

// bitset is a set of small non-negative integers.
type bitset []uint64

func (s bitset) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s bitset) set(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }

// BlockSet is a set of blocks of one CFG, a bitset over block indices. A
// block that is not in the CFG is in no BlockSet.
type BlockSet struct {
	c    *CFG
	bits bitset
}

// Has reports whether b is in the set.
func (s BlockSet) Has(b *Block) bool {
	i, ok := s.c.index(b)
	return ok && s.bits.has(i)
}

// Reachable returns the set of blocks reachable from entry.
func (c *CFG) Reachable() BlockSet {
	s := BlockSet{c: c, bits: make(bitset, (len(c.blocks)+63)>>6)}
	for _, b := range c.ReversePostOrder() {
		s.bits.set(int(c.at(b)))
	}
	return s
}

// DomTree is the dominator tree of a CFG's reachable blocks.
type DomTree struct {
	cfg  *CFG
	idom []*Block // by block index; nil = unreachable, entry = itself
	// Block i's children, in block order, are kids[kidOff[i]:kidOff[i+1]].
	kids   []*Block
	kidOff []int32
	// pre/post are the tree's DFS entry and exit numbers: a dominates b iff
	// a's interval encloses b's.
	pre, post []int32
}

// BuildDomTree computes immediate dominators with the iterative
// Cooper-Harvey-Kennedy algorithm over the reverse post-order.
func BuildDomTree(c *CFG) *DomTree {
	n := len(c.blocks)
	rpo := c.ReversePostOrder()
	// order[i] is block i's reverse-post-order number, idom[i] its immediate
	// dominator's block index, both -1 while unknown / unreachable.
	nums := make([]int32, 5*n+1)
	order, idom := nums[:n], nums[n:2*n]
	for i := range order {
		order[i], idom[i] = -1, -1
	}
	for i, b := range rpo {
		order[c.at(b)] = int32(i)
	}
	if n > 0 {
		idom[0] = 0
	}
	intersect := func(a, b int32) int32 {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[min(1, len(rpo)):] { // entry is rpo[0]
			bi := c.at(b)
			newIDom := int32(-1)
			for _, p := range c.predsAt(int(bi)) {
				pi := c.at(p)
				if idom[pi] < 0 {
					continue // predecessor not yet processed or unreachable
				}
				if newIDom < 0 {
					newIDom = pi
				} else {
					newIDom = intersect(pi, newIDom)
				}
			}
			if newIDom >= 0 && idom[bi] != newIDom {
				idom[bi] = newIDom
				changed = true
			}
		}
	}

	// Materialise: idom as blocks, children lists in block order behind
	// offsets, then the DFS numbering Dominates reads.
	back := make([]*Block, 2*n)
	d := &DomTree{cfg: c, idom: back[:n:n], kids: back[n:],
		pre: nums[2*n : 3*n], post: nums[3*n : 4*n], kidOff: nums[4*n:]}
	cursor := order // reverse-post-order numbers are dead from here on
	clear(cursor)
	for i, p := range idom {
		if p >= 0 {
			d.idom[i] = c.blocks[p]
			if int(p) != i {
				cursor[p]++
			}
		}
	}
	off := int32(0)
	for i, k := range cursor {
		d.kidOff[i], cursor[i] = off, off
		off += k
	}
	if n == 0 {
		return d
	}
	d.kidOff[n] = off
	for i, p := range idom {
		if p >= 0 && int(p) != i {
			d.kids[cursor[p]] = c.blocks[i]
			cursor[p]++
		}
	}
	// cursor doubles as the DFS stack of block indices, idom (no longer
	// needed as indices) as each frame's next-child cursor.
	stack, next := cursor, idom
	stack[0], next[0] = 0, 0
	top, clock := 0, int32(0)
	d.pre[0] = clock
	for top >= 0 {
		bi := stack[top]
		cs := d.childrenAt(int(bi))
		if int(next[top]) == len(cs) {
			clock++
			d.post[bi] = clock
			top--
			continue
		}
		ci := c.at(cs[next[top]])
		next[top]++
		top++
		clock++
		stack[top], next[top] = ci, 0
		d.pre[ci] = clock
	}
	return d
}

func (d *DomTree) childrenAt(i int) []*Block {
	lo, hi := d.kidOff[i], d.kidOff[i+1]
	return d.kids[lo:hi:hi]
}

// IDom returns b's immediate dominator: b itself for the entry block, nil
// for a block that is unreachable or not in the CFG.
func (d *DomTree) IDom(b *Block) *Block {
	if i, ok := d.cfg.index(b); ok {
		return d.idom[i]
	}
	return nil
}

// Children returns the blocks b immediately dominates, in block order.
// Read-only.
func (d *DomTree) Children(b *Block) []*Block {
	if i, ok := d.cfg.index(b); ok {
		return d.childrenAt(i)
	}
	return nil
}

// Dominates reports whether a dominates b (reflexive). An unreachable block
// dominates, and is dominated by, only itself.
func (d *DomTree) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	ai, ok := d.cfg.index(a)
	if !ok || d.idom[ai] == nil {
		return false
	}
	bi, ok := d.cfg.index(b)
	if !ok || d.idom[bi] == nil {
		return false
	}
	return d.pre[ai] <= d.pre[bi] && d.post[bi] <= d.post[ai]
}

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Header *Block
	Latch  *Block // unique latch if there is one, else nil
	// Preheader is the unique out-of-loop predecessor of the header, if any.
	Preheader *Block
	// Exits are in-loop blocks with a successor outside the loop, in block
	// order.
	Exits []*Block
	// Parent is the innermost enclosing loop, nil for top-level loops.
	Parent *Loop
	Depth  int

	in   BlockSet
	body []*Block
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *Block) bool { return l.in.Has(b) }

// Blocks returns the loop's blocks in block order. Read-only.
func (l *Loop) Blocks() []*Block { return l.body }

// LoopInfo is the set of natural loops of a function.
type LoopInfo struct {
	Loops []*Loop
}

// FindLoops discovers all natural loops using dominator-based back-edge
// detection, merging loops that share a header and computing nesting depth.
// Loops are listed in reverse post-order of their headers' first back edge.
func FindLoops(c *CFG, dt *DomTree) *LoopInfo {
	li := &LoopInfo{}
	n := len(c.blocks)
	// loopOf[i] is 1 + the position in li.Loops of the loop headed by block i;
	// headers lists those blocks, and stack is collectBody's.
	var loopOf, headers, stack []int32
	for _, b := range c.ReversePostOrder() {
		for _, s := range c.succsAt(int(c.at(b))) {
			if !dt.Dominates(s, b) {
				continue
			}
			if loopOf == nil {
				scratch := make([]int32, 3*n)
				loopOf, headers, stack = scratch[:n], scratch[n:n:2*n], scratch[2*n:]
			}
			if si := c.at(s); loopOf[si] == 0 {
				headers = append(headers, si)
				loopOf[si] = int32(len(headers))
			}
		}
	}
	if len(headers) == 0 {
		return li
	}
	words := (n + 63) >> 6
	sets := make(bitset, words*len(headers))
	loops := make([]Loop, len(headers))
	li.Loops = make([]*Loop, len(headers))
	for i, h := range headers {
		l := &loops[i]
		l.Header = c.blocks[h]
		l.in = BlockSet{c: c, bits: sets[i*words : (i+1)*words : (i+1)*words]}
		l.in.bits.set(int(h))
		li.Loops[i] = l
	}
	total := len(headers)
	for _, b := range c.ReversePostOrder() {
		bi := c.at(b)
		for _, s := range c.succsAt(int(bi)) {
			if dt.Dominates(s, b) { // back edge b -> s
				total += loops[loopOf[c.at(s)]-1].collectBody(bi, stack)
			}
		}
	}
	bodies := make([]*Block, 0, 2*total) // loop bodies, then exits
	for _, l := range li.Loops {
		bodies = l.finish(bodies)
	}
	// Nesting: a loop is nested in another if its header is inside it.
	for _, inner := range li.Loops {
		for _, outer := range li.Loops {
			if inner == outer || !outer.Contains(inner.Header) {
				continue
			}
			if inner.Parent == nil || inner.Parent.Contains(outer.Header) {
				inner.Parent = outer
			}
		}
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return li
}

// collectBody adds to the loop every block that reaches latch without
// passing through the header, and returns how many it added. stack is
// scratch for at least one entry per block.
func (l *Loop) collectBody(latch int32, stack []int32) int {
	c, in := l.in.c, l.in.bits
	if in.has(int(latch)) {
		return 0
	}
	// Blocks are marked when pushed, so each is pushed once.
	in.set(int(latch))
	stack[0] = latch
	top, added := 0, 1
	for top >= 0 {
		bi := stack[top]
		top--
		for _, p := range c.predsAt(int(bi)) {
			if pi := c.at(p); !in.has(int(pi)) {
				in.set(int(pi))
				added++
				top++
				stack[top] = pi
			}
		}
	}
	return added
}

// finish derives the loop's block list, latch, preheader and exits from its
// membership set, carving the two lists from backing.
func (l *Loop) finish(backing []*Block) []*Block {
	c := l.in.c
	start := len(backing)
	for w, word := range l.in.bits {
		for ; word != 0; word &= word - 1 {
			backing = append(backing, c.blocks[w<<6+bits.TrailingZeros64(word)])
		}
	}
	l.body = backing[start:len(backing):len(backing)]
	// Latch: unique in-loop predecessor of the header. Preheader: unique
	// out-of-loop predecessor of the header, and it must be dedicated (its
	// terminator is an unconditional jump to the header), so passes may
	// insert code or rewrite its terminator safely. loop-simplify creates
	// dedicated preheaders where they are missing.
	var latch, out *Block
	latches, outs := 0, 0
	for _, p := range c.Preds(l.Header) {
		if l.Contains(p) {
			latch = p
			latches++
		} else {
			out = p
			outs++
		}
	}
	if latches == 1 {
		l.Latch = latch
	}
	if outs == 1 {
		if t := out.Term(); t != nil && t.Op == OpJmp {
			l.Preheader = out
		}
	}
	start = len(backing)
	for _, b := range l.body {
		for _, s := range c.Succs(b) {
			if !l.Contains(s) {
				backing = append(backing, b)
				break
			}
		}
	}
	l.Exits = backing[start:len(backing):len(backing)]
	return backing
}

// CanonicalIV describes the canonical induction variable of a loop:
// a header phi initialised from the preheader and stepped by a constant
// in-loop add, compared against a loop-invariant bound.
type CanonicalIV struct {
	Phi   *Instr
	Init  Value
	Step  int64
	Next  *Instr // the add producing the next IV value
	Cmp   *Instr // the comparison controlling the exit, if identified
	Bound Value  // loop-invariant trip bound, if identified
}

// FindCanonicalIV identifies the canonical induction variable of l, if any.
func FindCanonicalIV(c *CFG, l *Loop) *CanonicalIV {
	if l.Preheader == nil || l.Latch == nil {
		return nil
	}
	for _, phi := range l.Header.phiPrefix() {
		if !phi.Ty.Kind.IsInt() || phi.Ty.IsVector() || len(phi.Ops) != 2 {
			continue
		}
		var init Value
		var nextV Value
		for i, from := range phi.Blocks {
			if from == l.Preheader || !l.Contains(from) {
				init = phi.Ops[i]
			} else {
				nextV = phi.Ops[i]
			}
		}
		next, ok := nextV.(*Instr)
		if !ok || next.Op != OpAdd {
			continue
		}
		var step *Const
		if next.Ops[0] == phi {
			step, _ = next.ConstOperand(1)
		} else if next.Ops[1] == phi {
			step, _ = next.ConstOperand(0)
		}
		if step == nil || init == nil {
			continue
		}
		iv := &CanonicalIV{Phi: phi, Init: init, Step: step.I, Next: next}
		// Find the controlling compare in the header or latch terminator.
		for _, b := range []*Block{l.Header, l.Latch} {
			t := b.Term()
			if t == nil || t.Op != OpBr {
				continue
			}
			if cmp, ok := t.Ops[0].(*Instr); ok && cmp.Op == OpICmp {
				var other Value
				if cmp.Ops[0] == phi || cmp.Ops[0] == next {
					other = cmp.Ops[1]
				} else if cmp.Ops[1] == phi || cmp.Ops[1] == next {
					other = cmp.Ops[0]
				}
				if other != nil && IsLoopInvariant(l, other) {
					iv.Cmp = cmp
					iv.Bound = other
					break
				}
			}
		}
		return iv
	}
	return nil
}

// IsLoopInvariant reports whether v is defined outside the loop (constants,
// params, globals and out-of-loop instructions).
func IsLoopInvariant(l *Loop, v Value) bool {
	in, ok := v.(*Instr)
	if !ok {
		return true
	}
	return in.parent == nil || !l.Contains(in.parent)
}

// TripCount returns the constant trip count of the loop if it can be deduced
// from the canonical IV (init, step and bound all constants), else -1.
func (iv *CanonicalIV) TripCount() int64 {
	initC, ok := iv.Init.(*Const)
	if !ok || iv.Cmp == nil || iv.Step == 0 {
		return -1
	}
	boundC, ok := iv.Bound.(*Const)
	if !ok {
		return -1
	}
	pred := iv.Cmp.Pred
	// Normalise to iv on the left.
	if iv.Cmp.Ops[1] == iv.Phi || iv.Cmp.Ops[1] == iv.Next {
		pred = pred.Swapped()
	}
	lo, hi, step := initC.I, boundC.I, iv.Step
	switch pred {
	case CmpSLT, CmpNE:
		if step > 0 && hi > lo {
			return (hi - lo + step - 1) / step
		}
	case CmpSLE:
		if step > 0 && hi >= lo {
			return (hi - lo + step) / step
		}
	case CmpSGT:
		if step < 0 && hi < lo {
			return (lo - hi - step - 1) / -step
		}
	case CmpSGE:
		if step < 0 && hi <= lo {
			return (lo - hi - step) / -step
		}
	}
	return -1
}
