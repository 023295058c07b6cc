package passes

import (
	"repro/internal/ir"
)

// funcUses is one pass invocation's handle on the def-use index of the
// function it rewrites. The index is built at the first query, so a pass
// that finds nothing to do never pays for it. The rule a pass keeps: a live
// index is coherent. Whatever the pass changes it either reports to the
// index (Set, ReplaceAll, Insert, Remove, replaceWithValue, unlink) or
// follows with drop, and the next query builds a fresh one. A block with
// pending edits (ir.Block's edit log) is coherent as a Flush would leave it:
// an unlinked instruction is already out of the index, a logged insertion
// already in. done, deferred, flushes every block of the function and
// releases the index.
type funcUses struct {
	f   *ir.Function
	u   *ir.Uses
	tmp []ir.Use // collect's result
}

// usesChecked, set by tests only, sees every index a pass is about to query
// again or release, i.e. every point where the rule above must hold — in the
// middle of a block with pending edits too.
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

// done applies the pending block edits and releases the index at the end of
// the pass.
func (x *funcUses) done() {
	x.f.Flush()
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

// unlink takes in out of its block, leaving the entry for the block's next
// Flush.
func (x *funcUses) unlink(in *ir.Instr) {
	in.Parent().Unlink(in)
	x.removed(in)
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

// replaceWithValue replaces all uses of in with v and unlinks in from its
// block: the entry stays in place until the block's next Flush (a caller
// scanning the block goes on past it, or flushes before it reads positions
// again).
func replaceWithValue(fu *funcUses, in *ir.Instr, v ir.Value) {
	u := fu.get()
	u.ReplaceAll(in, v)
	if b := in.Parent(); b != nil {
		b.Unlink(in)
		u.Remove(in)
	}
}

// replaceNow is replaceWithValue for a caller that reads positions again
// right after: in's block is flushed at once, as a per-edit removal left it.
func replaceNow(fu *funcUses, in *ir.Instr, v ir.Value) {
	b := in.Parent()
	replaceWithValue(fu, in, v)
	if b != nil {
		b.Flush()
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
