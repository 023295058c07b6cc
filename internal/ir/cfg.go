package ir

// CFG holds predecessor/successor relations for a function at a moment in
// time. Recompute after mutating control flow.
type CFG struct {
	F     *Function
	Preds map[*Block][]*Block
	Succs map[*Block][]*Block
}

// BuildCFG computes the control-flow graph of f. The adjacency lists are
// carved out of two shared backing arrays sized by a counting pre-pass:
// CFGs are rebuilt after nearly every pass, so per-edge append growth would
// dominate the compile pipeline's allocation count.
func BuildCFG(f *Function) *CFG {
	n := len(f.Blocks)
	c := &CFG{F: f, Preds: make(map[*Block][]*Block, n), Succs: make(map[*Block][]*Block, n)}
	total := 0
	predN := make(map[*Block]int, n)
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil {
			ss := t.Succs()
			total += len(ss)
			for _, s := range ss {
				predN[s]++
			}
		}
	}
	succBack := make([]*Block, total)
	predBack := make([]*Block, total)
	off := 0
	for _, b := range f.Blocks {
		if k := predN[b]; k > 0 {
			c.Preds[b] = predBack[off : off : off+k]
			off += k
		}
	}
	off = 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		ss := t.Succs()
		if len(ss) == 0 {
			continue
		}
		dst := succBack[off : off : off+len(ss)]
		off += len(ss)
		c.Succs[b] = append(dst, ss...)
		for _, s := range ss {
			c.Preds[s] = append(c.Preds[s], b) // cap pre-carved: never reallocates
		}
	}
	return c
}

// ReversePostOrder returns the blocks of f in reverse post-order from entry.
// Unreachable blocks are omitted.
func (c *CFG) ReversePostOrder() []*Block {
	n := len(c.F.Blocks)
	post := make([]*Block, 0, n)
	seen := make(map[*Block]bool, n)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range c.Succs[b] {
			dfs(s)
		}
		post = append(post, b)
	}
	if n > 0 {
		dfs(c.F.Entry())
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Reachable returns the set of blocks reachable from entry.
func (c *CFG) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool, len(c.F.Blocks))
	if len(c.F.Blocks) == 0 {
		return seen
	}
	stack := make([]*Block, 1, len(c.F.Blocks))
	stack[0] = c.F.Entry()
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, c.Succs[b]...)
	}
	return seen
}

// DomTree maps each reachable block to its immediate dominator (entry maps to
// itself).
type DomTree struct {
	IDom map[*Block]*Block
	cfg  *CFG
}

// BuildDomTree computes immediate dominators with the iterative
// Cooper-Harvey-Kennedy algorithm over the reverse post-order.
func BuildDomTree(c *CFG) *DomTree {
	rpo := c.ReversePostOrder()
	index := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*Block]*Block, len(rpo))
	entry := c.F.Entry()
	idom[entry] = entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIDom *Block
			for _, p := range c.Preds[b] {
				if idom[p] == nil {
					continue // predecessor not yet processed or unreachable
				}
				if newIDom == nil {
					newIDom = p
				} else {
					newIDom = intersect(p, newIDom)
				}
			}
			if newIDom != nil && idom[b] != newIDom {
				idom[b] = newIDom
				changed = true
			}
		}
	}
	return &DomTree{IDom: idom, cfg: c}
}

// Dominates reports whether a dominates b (reflexive).
func (d *DomTree) Dominates(a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := d.IDom[b]
		if !ok || next == b {
			return false
		}
		b = next
	}
}

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Header *Block
	Latch  *Block // unique latch if there is one, else nil
	Blocks map[*Block]bool
	// Preheader is the unique out-of-loop predecessor of the header, if any.
	Preheader *Block
	// Exits are in-loop blocks with a successor outside the loop.
	Exits []*Block
	// Parent is the innermost enclosing loop, nil for top-level loops.
	Parent *Loop
	Depth  int
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *Block) bool { return l.Blocks[b] }

// LoopInfo is the set of natural loops of a function.
type LoopInfo struct {
	Loops []*Loop
}

// FindLoops discovers all natural loops using dominator-based back-edge
// detection, merging loops that share a header and computing nesting depth.
func FindLoops(c *CFG, dt *DomTree) *LoopInfo {
	byHeader := make(map[*Block]*Loop)
	var order []*Block
	for _, b := range c.ReversePostOrder() {
		for _, s := range c.Succs[b] {
			if dt.Dominates(s, b) {
				// back edge b -> s
				l, ok := byHeader[s]
				if !ok {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					byHeader[s] = l
					order = append(order, s)
				}
				collectLoopBody(c, l, b)
			}
		}
	}
	li := &LoopInfo{}
	for _, h := range order {
		l := byHeader[h]
		finishLoop(c, l)
		li.Loops = append(li.Loops, l)
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

func collectLoopBody(c *CFG, l *Loop, latch *Block) {
	stack := []*Block{latch}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l.Blocks[b] {
			continue
		}
		l.Blocks[b] = true
		for _, p := range c.Preds[b] {
			stack = append(stack, p)
		}
	}
}

func finishLoop(c *CFG, l *Loop) {
	// Latch: unique in-loop predecessor of the header.
	var latches []*Block
	for _, p := range c.Preds[l.Header] {
		if l.Blocks[p] {
			latches = append(latches, p)
		}
	}
	if len(latches) == 1 {
		l.Latch = latches[0]
	}
	// Preheader: unique out-of-loop predecessor of the header, and it must
	// be dedicated (its terminator is an unconditional jump to the header),
	// so passes may insert code or rewrite its terminator safely.
	// loop-simplify creates dedicated preheaders where they are missing.
	var outs []*Block
	for _, p := range c.Preds[l.Header] {
		if !l.Blocks[p] {
			outs = append(outs, p)
		}
	}
	if len(outs) == 1 {
		if t := outs[0].Term(); t != nil && t.Op == OpJmp {
			l.Preheader = outs[0]
		}
	}
	for b := range l.Blocks {
		for _, s := range c.Succs[b] {
			if !l.Blocks[s] {
				l.Exits = append(l.Exits, b)
				break
			}
		}
	}
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
	for _, phi := range l.Header.Phis() {
		if !phi.Ty.Kind.IsInt() || phi.Ty.IsVector() || len(phi.Ops) != 2 {
			continue
		}
		var init Value
		var nextV Value
		for i, from := range phi.Blocks {
			if from == l.Preheader || !l.Blocks[from] {
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
	return in.parent == nil || !l.Blocks[in.parent]
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
