package ir

import (
	"fmt"
	"testing"
)

// The per-edit block primitives as they were before the edit log: one
// memmove per edit, growing by a one-element append. They are the oracle the
// log is held to.

func insertBeforePerEdit(b *Block, idx int, in *Instr) {
	in.parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

func removeAtPerEdit(b *Block, idx int) {
	b.Instrs[idx].parent = nil
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}

func indexOfPerEdit(b *Block, in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// editPair is one block edited through the log and its twin edited one edit
// at a time; instruction k of one is instruction k of the other.
type editPair struct {
	b, o       *Block
	bIns, oIns []*Instr
}

func newEditPair(n, extra int) *editPair {
	p := &editPair{b: &Block{Name: "log"}, o: &Block{Name: "oracle"}}
	p.b.Instrs = make([]*Instr, 0, n+extra)
	p.o.Instrs = make([]*Instr, 0, n+extra)
	for k := 0; k < n; k++ {
		bi, oi := p.fresh()
		bi.parent, oi.parent = p.b, p.o
		p.b.Instrs = append(p.b.Instrs, bi)
		p.o.Instrs = append(p.o.Instrs, oi)
	}
	return p
}

// fresh returns a new instruction pair, tagged with its creation index.
func (p *editPair) fresh() (*Instr, *Instr) {
	k := len(p.bIns)
	bi, oi := &Instr{Op: OpAdd, ID: k}, &Instr{Op: OpAdd, ID: k}
	p.bIns, p.oIns = append(p.bIns, bi), append(p.oIns, oi)
	return bi, oi
}

// logicalPos is where an insertion logged at physical position at lands in
// the block as a Flush would leave it.
func (p *editPair) logicalPos(at int) int {
	pos := 0
	for r := 0; r < at; r++ {
		if p.b.Instrs[r].parent == p.b {
			pos++
		}
	}
	if p.b.ins != nil {
		for _, x := range p.b.ins.list {
			if x.at <= at && x.in.parent == p.b {
				pos++
			}
		}
	}
	return pos
}

// compare reports the first difference in order, length, capacity and the
// parent of every instruction ever made.
func (p *editPair) compare(wholeArray bool) error {
	tags := func(s []*Instr) string {
		out := make([]byte, 0, 4*len(s))
		for _, in := range s {
			if in == nil {
				out = append(out, "_ "...)
			} else {
				out = fmt.Appendf(out, "%d ", in.ID)
			}
		}
		return string(out)
	}
	bs, os := p.b.Instrs, p.o.Instrs
	if wholeArray {
		bs, os = bs[:cap(bs)], os[:cap(os)]
	}
	if g, w := tags(bs), tags(os); g != w {
		return fmt.Errorf("entries %q, per-edit %q", g, w)
	}
	if len(p.b.Instrs) != len(p.o.Instrs) || cap(p.b.Instrs) != cap(p.o.Instrs) {
		return fmt.Errorf("len/cap %d/%d, per-edit %d/%d", len(p.b.Instrs), cap(p.b.Instrs), len(p.o.Instrs), cap(p.o.Instrs))
	}
	for k := range p.bIns {
		if (p.bIns[k].parent == p.b) != (p.oIns[k].parent == p.o) || (p.bIns[k].parent == nil) != (p.oIns[k].parent == nil) {
			return fmt.Errorf("instruction %d: parent %q, per-edit %q", k, blockName(p.bIns[k].parent), blockName(p.oIns[k].parent))
		}
	}
	return nil
}

func blockName(b *Block) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}

// runEditScript applies script to a fresh pair: its first two bytes size the
// block (length, spare capacity), then each byte pair is one edit. Through
// the log, an insertion goes before a physical entry and a removal unlinks a
// live instruction, with an occasional Flush between; the twin gets the same
// edits one at a time. With perEdit the log side uses InsertBefore / RemoveAt
// instead, and the whole backing arrays must agree.
func runEditScript(script []byte, perEdit bool) error {
	if len(script) < 2 {
		return nil
	}
	p := newEditPair(int(script[0]%24), int(script[1]%9))
	for s := 2; s+1 < len(script); s += 2 {
		op, sel := script[s]%8, int(script[s+1])
		switch {
		case op < 4: // insert
			bi, oi := p.fresh()
			if perEdit {
				at := sel % (len(p.b.Instrs) + 1)
				p.b.InsertBefore(at, bi)
				insertBeforePerEdit(p.o, at, oi)
				break
			}
			at := sel % (len(p.b.Instrs) + 1)
			insertBeforePerEdit(p.o, p.logicalPos(at), oi)
			p.b.Insert(at, bi)
		case op < 7: // remove
			if p.b.length() == 0 {
				continue
			}
			if perEdit {
				at := sel % len(p.b.Instrs)
				victim := p.b.Instrs[at].ID
				p.b.RemoveAt(at)
				removeAtPerEdit(p.o, indexOfPerEdit(p.o, p.oIns[victim]))
				break
			}
			var buf []*Instr
			live := p.b.view(&buf)
			victim := live[sel%len(live)]
			p.b.Unlink(victim)
			removeAtPerEdit(p.o, indexOfPerEdit(p.o, p.oIns[victim.ID]))
		default:
			p.b.Flush()
			if err := p.compare(false); err != nil {
				return fmt.Errorf("after a mid-script Flush: %v", err)
			}
		}
		if got, want := p.b.length(), len(p.o.Instrs); got != want {
			return fmt.Errorf("Len %d, per-edit %d", got, want)
		}
	}
	p.b.Flush()
	if p.b.pending() {
		return fmt.Errorf("still pending after Flush")
	}
	return p.compare(perEdit)
}

// FuzzBlockEditsMatchPerEdit holds the edit log to the per-edit primitives it
// replaced: random interleaved insertions and removals on a block of random
// starting length and capacity leave the same order, length, capacity and
// parents; and InsertBefore / RemoveAt, now one-edit flushes, leave the very
// same backing array.
func FuzzBlockEditsMatchPerEdit(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 0, 2, 4, 1, 0, 9, 5, 0, 1, 3})
	f.Add([]byte{12, 3, 4, 0, 4, 0, 0, 7, 1, 7, 7, 0, 2, 2, 5, 1})
	f.Add([]byte{3, 8, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 4, 2, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, perEdit := range []bool{false, true} {
			if err := runEditScript(script, perEdit); err != nil {
				t.Fatalf("perEdit=%v: %v", perEdit, err)
			}
		}
	})
}

// TestBlockEditsMatchPerEdit runs the fuzz target's property over a fixed
// spread of scripts, so go test checks it without -fuzz.
func TestBlockEditsMatchPerEdit(t *testing.T) {
	seed := uint32(20261017)
	next := func() byte {
		seed = seed*1664525 + 1013904223
		return byte(seed >> 24)
	}
	for n := 0; n < 3000; n++ {
		script := make([]byte, 2+2*int(next()%40))
		for i := range script {
			script[i] = next()
		}
		for _, perEdit := range []bool{false, true} {
			if err := runEditScript(script, perEdit); err != nil {
				t.Fatalf("script %v perEdit=%v: %v", script, perEdit, err)
			}
		}
	}
}

// A pending block refuses the position-reading primitives, and Term, Phis,
// Len and the def-use index read it as a Flush would leave it.
func TestPendingBlockReads(t *testing.T) {
	f := &Function{Name: "f"}
	b := &Block{Name: "b", parent: f}
	f.Blocks = []*Block{b}
	phi := b.Append(&Instr{Op: OpPhi, Ty: I64T})
	x := b.Append(&Instr{Op: OpAdd, Ty: I64T, Ops: []Value{phi, phi}})
	ret := b.Append(&Instr{Op: OpRet, Ty: VoidT, Ops: []Value{x}})
	b.Unlink(phi)
	y := &Instr{Op: OpAdd, Ty: I64T, Ops: []Value{x, x}}
	b.Insert(2, y)
	for name, op := range map[string]func(){
		"IndexOf":      func() { b.IndexOf(x) },
		"InsertBefore": func() { b.InsertBefore(0, &Instr{Op: OpAdd}) },
		"RemoveAt":     func() { b.RemoveAt(0) },
		"RemoveIf":     func() { b.RemoveIf(func(*Instr) bool { return false }) },
		"Append":       func() { b.Append(&Instr{Op: OpAdd}) },
		"Renumber":     func() { f.Renumber() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a pending block did not panic", name)
				}
			}()
			op()
		}()
	}
	if got := len(b.Phis()); got != 0 {
		t.Errorf("Phis of a block whose phi is unlinked: %d", got)
	}
	if b.Term() != ret || b.length() != 3 || f.NumInstrs() != 3 {
		t.Errorf("Term %v length %d NumInstrs %d", b.Term(), b.length(), f.NumInstrs())
	}
	u := ComputeUses(f)
	if u.Count(x) != 3 || u.Count(phi) != 2 || u.Count(y) != 0 {
		t.Errorf("uses of x %d, of the unlinked phi %d, of the logged y %d", u.Count(x), u.Count(phi), u.Count(y))
	}
	if err := u.Check(f); err != nil {
		t.Error(err)
	}
	u.Release()
	f.Flush()
	if len(b.Instrs) != 3 || b.Instrs[0] != x || b.Instrs[1] != y || b.Instrs[2] != ret || phi.Parent() != nil || y.Parent() != b {
		t.Errorf("after Flush: %v", b.Instrs)
	}
}

// The edit log's fields cost a snapshot nothing: unlinked sits in the padding
// after idx, and the insertion log's pointer is left out of ApproxBytes, so
// eviction sees the block it saw before the log.
func TestBlockEditLogLeftOutOfApproxBytes(t *testing.T) {
	if sizeofBlock != 56 {
		t.Fatalf("sizeofBlock = %d, want 56", sizeofBlock)
	}
}

// InsertBefore out of range fails with the per-edit memmove's own panic, so
// a candidate rejected for it is rejected with the same text.
func TestInsertBeforeOutOfRangePanicsAsPerEdit(t *testing.T) {
	panicText := func(insert func(b *Block, idx int, in *Instr), idx int) (s string) {
		defer func() { s = fmt.Sprint(recover()) }()
		b := &Block{Name: "b"}
		b.Append(&Instr{Op: OpAdd})
		b.Append(&Instr{Op: OpAdd})
		insert(b, idx, &Instr{Op: OpAdd})
		return "no panic"
	}
	for _, idx := range []int{-2, -1, 3, 7} {
		got := panicText((*Block).InsertBefore, idx)
		if want := panicText(insertBeforePerEdit, idx); got != want {
			t.Errorf("InsertBefore(%d): %q, per-edit %q", idx, got, want)
		}
	}
}
