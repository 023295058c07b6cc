package ir

import (
	"fmt"
	"sync"
)

// Use is one operand slot holding a value: User.Ops[Slot].
type Use struct {
	User *Instr
	Slot int
}

// Uses is the def→uses index of one function body: for every instruction
// and every parameter of the function, the operand slots of instructions
// currently in f.Blocks that hold it. It answers what a whole-function
// operand scan would answer, in O(uses of the value).
//
// An index is a snapshot owned by the pass that built it. Nothing is stored
// on the Function, so any mutation the index is not told about (through
// Set, ReplaceAll, Insert and Remove) makes it stale; the owner then drops
// it and builds another. At most one index per function may be live at a
// time: ComputeUses renumbers the instructions, which orphans the entries
// of an older index. Release returns the tables to a pool.
//
// Only users in f.Blocks count: an instruction that has been taken out of
// its block, or not yet put into one, uses nothing. A use's block is not
// recorded; read it from User.Parent() (for a phi, User.Blocks[Slot] is the
// incoming edge), so moving a user moves its uses with it. A value that is
// referenced but is itself no longer in the function keeps its list, exactly
// as a scan would still find its users.
type Uses struct {
	f      *Function
	defs   []useList // by Instr.uid-1, entry.def identity-checked
	params []useList // by Param.Index
	store  []Use     // backing array the lists of a fresh index are carved from
}

type useList struct {
	def  *Instr
	uses []Use
	n    int32 // use count, only meaningful while ComputeUses runs
}

var usesPool = sync.Pool{New: func() any { return new(Uses) }}

// ComputeUses indexes f as it is now, in two sweeps over the operands: one
// numbers the values and counts their uses, one fills the lists, which are
// carved from a single pooled array. On a fresh index Of returns uses in
// scan order: block order, instruction order, slot order. Like the block
// mutators it panics on a COW-shared body (it writes the numbering into the
// instructions).
func ComputeUses(f *Function) *Uses {
	if f.isShared() {
		panic("ir: ComputeUses on a COW-shared function body; call MaterializeModule first")
	}
	u := usesPool.Get().(*Uses)
	u.f = f
	if n := len(f.Params); cap(u.params) < n {
		u.params = make([]useList, n)
	} else {
		u.params = u.params[:n]
	}
	total := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Ops {
				if l := u.entry(op); l != nil {
					l.n++
					total++
				}
			}
		}
	}
	if cap(u.store) < total {
		u.store = make([]Use, total)
	}
	u.store = u.store[:total]
	off := 0
	carve := func(ls []useList) {
		for i := range ls {
			l := &ls[i]
			l.uses = u.store[off : off : off+int(l.n)]
			off += int(l.n)
		}
	}
	carve(u.defs)
	carve(u.params)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for slot, op := range in.Ops {
				if l := u.entry(op); l != nil {
					l.uses = append(l.uses, Use{in, slot}) // within the carved capacity
				}
			}
		}
	}
	return u
}

// Release returns the index's tables to the pool. The index, and every slice
// Of returned, must not be used afterwards.
func (u *Uses) Release() {
	clear(u.defs)
	u.defs = u.defs[:0]
	clear(u.params)
	clear(u.store)
	u.f = nil
	usesPool.Put(u)
}

// entry returns the list of v, numbering an instruction met for the first
// time, or nil when v is not an indexed kind of value (a constant, a global,
// another function's parameter). The pointer is valid until the next call.
func (u *Uses) entry(v Value) *useList {
	switch d := v.(type) {
	case *Instr:
		if l := u.numbered(d); l != nil {
			return l
		}
		u.defs = append(u.defs, useList{def: d})
		d.uid = int32(len(u.defs))
		return &u.defs[len(u.defs)-1]
	case *Param:
		if i := d.Index; i >= 0 && i < len(u.params) && u.f.Params[i] == d {
			return &u.params[i]
		}
	}
	return nil
}

// numbered returns the list of an instruction this index has numbered.
func (u *Uses) numbered(d *Instr) *useList {
	if k := int(d.uid); k > 0 && k <= len(u.defs) && u.defs[k-1].def == d {
		return &u.defs[k-1]
	}
	return nil
}

// Of returns the uses of v, which must be an instruction or a parameter of
// the function. The slice is the index's own: read it before the next
// mutation and do not modify it.
func (u *Uses) Of(v Value) []Use {
	switch d := v.(type) {
	case *Instr:
		if l := u.numbered(d); l != nil {
			return l.uses
		}
		return nil
	case *Param:
		if l := u.entry(d); l != nil {
			return l.uses
		}
	}
	panic(fmt.Sprintf("ir: Uses.Of(%T): only instructions and the function's own parameters are indexed", v))
}

// Count returns the number of operand slots holding v.
func (u *Uses) Count(v Value) int { return len(u.Of(v)) }

// Has reports whether any operand slot holds v.
func (u *Uses) Has(v Value) bool { return len(u.Of(v)) > 0 }

// Set rewrites user.Ops[slot] to v. user must be in the function.
func (u *Uses) Set(user *Instr, slot int, v Value) {
	u.drop(user.Ops[slot], user, slot)
	user.Ops[slot] = v
	u.add(v, user, slot)
}

// ReplaceAll rewrites every use of old to new and returns how many there
// were; the uses move to the end of new's list.
func (u *Uses) ReplaceAll(old, new Value) int {
	uses := u.Of(old)
	if len(uses) == 0 || old == new {
		return len(uses)
	}
	for _, x := range uses {
		x.User.Ops[x.Slot] = new
	}
	if l := u.entry(new); l != nil {
		// entry may have grown u.defs, and new's list may grow into fresh
		// memory; uses still points at old's (unmoved) elements either way.
		l.uses = append(l.uses, uses...)
	}
	lo := u.entry(old)
	lo.uses = lo.uses[:0]
	return len(uses)
}

// Insert records the operand uses of in, which has just been put into a
// block of the function.
func (u *Uses) Insert(in *Instr) {
	for slot, op := range in.Ops {
		u.add(op, in, slot)
	}
}

// Remove forgets the operand uses of in, which has just been taken out of
// its block. Uses of in itself stay: their users are still in the function.
func (u *Uses) Remove(in *Instr) {
	for slot, op := range in.Ops {
		u.drop(op, in, slot)
	}
}

func (u *Uses) add(v Value, user *Instr, slot int) {
	if l := u.entry(v); l != nil {
		l.uses = append(l.uses, Use{user, slot})
	}
}

func (u *Uses) drop(v Value, user *Instr, slot int) {
	l := u.entry(v)
	if l == nil {
		return
	}
	for i, x := range l.uses {
		if x.User == user && x.Slot == slot {
			l.uses = append(l.uses[:i], l.uses[i+1:]...)
			return
		}
	}
	panic("ir: Uses is stale: dropping a use it never recorded")
}

// Check compares the index against a fresh scan of f and reports the first
// difference (use lists are compared as multisets: only a fresh index
// promises an order). It is the oracle tests hold a maintained index to.
func (u *Uses) Check(f *Function) error {
	if u.f != f {
		return fmt.Errorf("ir: Uses of %s checked against %s", u.f.Name, f.Name)
	}
	want := make(map[Value]map[Use]int)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for slot, op := range in.Ops {
				switch d := op.(type) {
				case *Param:
					if d.Index < 0 || d.Index >= len(f.Params) || f.Params[d.Index] != d {
						continue
					}
				case *Instr:
				default:
					continue
				}
				if want[op] == nil {
					want[op] = make(map[Use]int)
				}
				want[op][Use{in, slot}]++
			}
		}
	}
	check := func(v Value, got []Use) error {
		w := want[v]
		delete(want, v)
		n := 0
		for _, c := range w {
			n += c
		}
		if n != len(got) {
			return fmt.Errorf("ir: Uses of %s in %s: %d indexed, %d in the function", v.valueName(), f.Name, len(got), n)
		}
		for _, x := range got {
			if w[x] == 0 {
				return fmt.Errorf("ir: Uses of %s in %s: slot %d of a %s is indexed but does not hold it",
					v.valueName(), f.Name, x.Slot, x.User.Op)
			}
			w[x]--
		}
		return nil
	}
	for i := range u.defs {
		if err := check(u.defs[i].def, u.defs[i].uses); err != nil {
			return err
		}
	}
	for i, p := range f.Params {
		if err := check(p, u.params[i].uses); err != nil {
			return err
		}
	}
	var err error
	for v, w := range want {
		err = fmt.Errorf("ir: Uses of %s in %s: %d in the function, none indexed", v.valueName(), f.Name, len(w))
	}
	return err
}
