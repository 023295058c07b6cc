package passes

import (
	"repro/internal/ir"
)

// funcUses is one pass invocation's handle on the def-use index of the
// function it rewrites. The index is built at the first query, so a pass
// that finds nothing to do never pays for it. The rule a pass keeps: a live
// index is coherent. Whatever the pass changes it either reports to the
// index (Set, ReplaceAll, Insert, Remove, replaceWithValue) or follows with
// drop, and the next query builds a fresh one. done, deferred, releases it.
type funcUses struct {
	f   *ir.Function
	u   *ir.Uses
	tmp []ir.Use // collect's result
}

// usesChecked, set by tests only, sees every index a pass is about to query
// again or release, i.e. every point where the rule above must hold.
var usesChecked func(f *ir.Function, u *ir.Uses)

func (x *funcUses) get() *ir.Uses {
	if x.u == nil {
		x.u = ir.ComputeUses(x.f)
	} else if usesChecked != nil {
		usesChecked(x.f, x.u)
	}
	return x.u
}

// drop discards an index the pass has let go stale.
func (x *funcUses) drop() {
	if x.u != nil {
		x.u.Release()
		x.u = nil
	}
}

// done releases the index at the end of the pass.
func (x *funcUses) done() {
	if x.u != nil && usesChecked != nil {
		usesChecked(x.f, x.u)
	}
	x.drop()
}

// set, setOps, inserted and removed are for the changes a pass makes itself:
// they keep a live index coherent and cost nothing when none has been built.

// set rewrites user.Ops[slot] to v; user must be in the function.
func (x *funcUses) set(user *ir.Instr, slot int, v ir.Value) {
	if x.u != nil {
		x.u.Set(user, slot, v)
	} else {
		user.Ops[slot] = v
	}
}

// setOps gives in, which must be in the function, a new operand list.
func (x *funcUses) setOps(in *ir.Instr, ops []ir.Value) {
	x.removed(in)
	in.Ops = ops
	x.inserted(in)
}

// inserted reports that in has just been put into a block.
func (x *funcUses) inserted(in *ir.Instr) {
	if x.u != nil {
		x.u.Insert(in)
	}
}

// removed reports that in has just been taken out of its block.
func (x *funcUses) removed(in *ir.Instr) {
	if x.u != nil {
		x.u.Remove(in)
	}
}

// collect returns the uses of v that keep accepts, copied out of the index so
// the caller may rewrite them; the slice is reused by the next collect.
func (x *funcUses) collect(v ir.Value, keep func(ir.Use) bool) []ir.Use {
	x.tmp = x.tmp[:0]
	for _, use := range x.get().Of(v) {
		if keep(use) {
			x.tmp = append(x.tmp, use)
		}
	}
	return x.tmp
}

// setAll rewrites every one of uses to v.
func (x *funcUses) setAll(uses []ir.Use, v ir.Value) {
	for _, use := range uses {
		x.set(use.User, use.Slot, v)
	}
}

// replaceWithValue replaces all uses of in with v and deletes in.
func replaceWithValue(fu *funcUses, in *ir.Instr, v ir.Value) {
	u := fu.get()
	u.ReplaceAll(in, v)
	if b := in.Parent(); b != nil {
		if idx := b.IndexOf(in); idx >= 0 {
			b.RemoveAt(idx)
			u.Remove(in)
		}
	}
}

// valueUsedOutsideLoop reports whether any instruction outside l uses v.
func valueUsedOutsideLoop(u *ir.Uses, l *ir.Loop, v ir.Value) bool {
	for _, x := range u.Of(v) {
		if !l.Contains(x.User.Parent()) {
			return true
		}
	}
	return false
}
