package passes_test

import "repro/internal/ir"

// The pointer-keyed analyses ir.BuildCFG / BuildDomTree / FindLoops replaced,
// kept as the oracle of the dense ones (analyses_test.go): maps from
// *ir.Block, rebuilt from the function as it is now.

type mapCFG struct {
	F     *ir.Function
	Preds map[*ir.Block][]*ir.Block
	Succs map[*ir.Block][]*ir.Block
}

func mapBuildCFG(f *ir.Function) *mapCFG {
	n := len(f.Blocks)
	c := &mapCFG{F: f, Preds: make(map[*ir.Block][]*ir.Block, n), Succs: make(map[*ir.Block][]*ir.Block, n)}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		ss := t.Succs()
		if len(ss) == 0 {
			continue
		}
		c.Succs[b] = append([]*ir.Block(nil), ss...)
		for _, s := range ss {
			c.Preds[s] = append(c.Preds[s], b)
		}
	}
	return c
}

func (c *mapCFG) ReversePostOrder() []*ir.Block {
	n := len(c.F.Blocks)
	post := make([]*ir.Block, 0, n)
	seen := make(map[*ir.Block]bool, n)
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
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

func (c *mapCFG) Reachable() map[*ir.Block]bool {
	seen := make(map[*ir.Block]bool, len(c.F.Blocks))
	if len(c.F.Blocks) == 0 {
		return seen
	}
	stack := []*ir.Block{c.F.Entry()}
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

type mapDomTree struct {
	IDom map[*ir.Block]*ir.Block
}

func mapBuildDomTree(c *mapCFG) *mapDomTree {
	rpo := c.ReversePostOrder()
	index := make(map[*ir.Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*ir.Block]*ir.Block, len(rpo))
	entry := c.F.Entry()
	idom[entry] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
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
			var newIDom *ir.Block
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
	return &mapDomTree{IDom: idom}
}

func (d *mapDomTree) Dominates(a, b *ir.Block) bool {
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

type mapLoop struct {
	Header    *ir.Block
	Latch     *ir.Block
	Blocks    map[*ir.Block]bool
	Preheader *ir.Block
	Exits     []*ir.Block // in map order
	Parent    *mapLoop
	Depth     int
}

func mapFindLoops(c *mapCFG, dt *mapDomTree) []*mapLoop {
	byHeader := make(map[*ir.Block]*mapLoop)
	var order []*ir.Block
	for _, b := range c.ReversePostOrder() {
		for _, s := range c.Succs[b] {
			if dt.Dominates(s, b) {
				// back edge b -> s
				l, ok := byHeader[s]
				if !ok {
					l = &mapLoop{Header: s, Blocks: map[*ir.Block]bool{s: true}}
					byHeader[s] = l
					order = append(order, s)
				}
				stack := []*ir.Block{b}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if l.Blocks[x] {
						continue
					}
					l.Blocks[x] = true
					stack = append(stack, c.Preds[x]...)
				}
			}
		}
	}
	var loops []*mapLoop
	for _, h := range order {
		l := byHeader[h]
		var latches, outs []*ir.Block
		for _, p := range c.Preds[l.Header] {
			if l.Blocks[p] {
				latches = append(latches, p)
			} else {
				outs = append(outs, p)
			}
		}
		if len(latches) == 1 {
			l.Latch = latches[0]
		}
		if len(outs) == 1 {
			if t := outs[0].Term(); t != nil && t.Op == ir.OpJmp {
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
		loops = append(loops, l)
	}
	for _, inner := range loops {
		for _, outer := range loops {
			if inner == outer || !outer.Blocks[inner.Header] {
				continue
			}
			if inner.Parent == nil || inner.Parent.Blocks[outer.Header] {
				inner.Parent = outer
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}
