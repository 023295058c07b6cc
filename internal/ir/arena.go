package ir

import (
	"fmt"
	"sync/atomic"
)

// This file implements the storage half of the copy-on-write module design:
// function bodies are cloned into contiguous arena slabs (one []Instr, one
// []Value operand pool, one []Block, one []*Instr block-membership pool per
// function) instead of per-object heap allocations, and modules materialize
// private copies of shared bodies only when a pass is about to mutate them.
//
// A clone is numbered like its source: the k-th instruction in block order
// has ID k in both (Function.Renumber), so an operand or branch target is
// remapped by indexing the clone's slabs with the source's ID / block index,
// after an identity check against the source (hasInstr / hasBlock) that
// catches objects a pass removed or spliced in from another function.

// Process-global clone/COW counters. These feed Prometheus gauges only —
// they are scheduling-dependent, so they must never reach canonical journal
// fields (worker-count determinism).
var (
	cowClones       atomic.Uint64 // COW Module.Clone handouts
	cowMaterialized atomic.Uint64 // modules materialized (deep-copied) for mutation
	slabFuncClones  atomic.Uint64 // function bodies cloned into slabs
)

// CloneCounters returns the cumulative process-global COW statistics:
// copy-on-write clones handed out, modules materialized for mutation and
// function bodies slab-cloned. The fourth result counted instructions on a
// map fallback that no longer exists; it is constant 0 and stays only until
// its last reader (the benchmark harness) drops it.
func CloneCounters() (clones, materialized, slabFuncs, _ uint64) {
	return cowClones.Load(), cowMaterialized.Load(), slabFuncClones.Load(), 0
}

// cloneFunction deep-copies f into fresh arena slabs. Operands, phi incoming
// blocks and branch targets are remapped to the cloned objects; constants are
// shared (they are immutable), and globals are remapped through gmap when
// present (else shared). The copy is always fully slab-resident and densely
// numbered, regardless of how fragmented the source was.
func cloneFunction(f *Function, gmap map[*Global]*Global) *Function {
	slabFuncClones.Add(1)
	nf := &Function{Name: f.Name, RetTy: f.RetTy, Attrs: f.Attrs, IsDecl: f.IsDecl, nextTmp: f.nextTmp}
	if n := len(f.Params); n > 0 {
		pslab := make([]Param, n)
		nf.Params = make([]*Param, n)
		for i, p := range f.Params {
			pslab[i] = Param{Name: p.Name, Ty: p.Ty, Index: p.Index}
			nf.Params[i] = &pslab[i]
		}
	}
	if len(f.Blocks) == 0 {
		return nf
	}

	// memb becomes the clone's block-membership array. Until the last loop
	// below it holds the source's instructions in ID order: the table the
	// identity checks read, and the flat order the operand loop walks.
	memb := f.instrsByID(nil)
	nOps, nSucc := 0, 0
	for _, in := range memb {
		nOps += len(in.Ops)
		nSucc += len(in.Blocks)
	}

	islab := make([]Instr, len(memb))
	bslab := make([]Block, len(f.Blocks))
	var opslab []Value
	if nOps > 0 {
		opslab = make([]Value, nOps)
	}
	var succslab []*Block
	if nSucc > 0 {
		succslab = make([]*Block, nSucc)
	}
	nf.Blocks = make([]*Block, len(f.Blocks))

	ii := 0
	for bi, b := range f.Blocks {
		nb := &bslab[bi]
		nb.Name = b.Name
		nb.parent = nf
		nb.idx = int32(bi)
		nf.Blocks[bi] = nb
		start := ii
		for _, in := range b.Instrs {
			ni := &islab[ii]
			*ni = Instr{
				Op: in.Op, Ty: in.Ty, Pred: in.Pred, Callee: in.Callee,
				AllocTy: in.AllocTy, NAlloc: in.NAlloc, Flags: in.Flags,
				ID: ii, parent: nb,
			}
			if in.Cases != nil {
				ni.Cases = append([]int64(nil), in.Cases...)
			}
			ii++
		}
		nb.Instrs = memb[start:ii:ii]
	}

	oi, si := 0, 0
	for k, in := range memb {
		ni := &islab[k]
		if n := len(in.Ops); n > 0 {
			ops := opslab[oi : oi+n : oi+n]
			oi += n
			for j, op := range in.Ops {
				switch t := op.(type) {
				case *Instr:
					if !hasInstr(memb, t) {
						panic(fmt.Sprintf("ir: clone: operand instruction not in function %s", f.Name))
					}
					ops[j] = &islab[t.ID]
				case *Param:
					if t.Index >= 0 && t.Index < len(f.Params) && f.Params[t.Index] == t {
						ops[j] = nf.Params[t.Index]
					} else {
						ops[j] = t
					}
				case *Global:
					if ng, ok := gmap[t]; ok {
						ops[j] = ng
					} else {
						ops[j] = op
					}
				default:
					ops[j] = op // constants are immutable and shared
				}
			}
			ni.Ops = ops
		}
		if n := len(in.Blocks); n > 0 {
			succ := succslab[si : si+n : si+n]
			si += n
			for j, tb := range in.Blocks {
				if !f.hasBlock(tb) {
					panic(fmt.Sprintf("ir: clone: target block not in function %s", f.Name))
				}
				succ[j] = &bslab[tb.idx]
			}
			ni.Blocks = succ
		}
	}
	for k := range memb {
		memb[k] = &islab[k]
	}
	return nf
}

// cloneGlobals gives the module private Global values, returning the remap
// table. The initialiser arrays are shared with the originals: they are
// read-only once built (see Global).
func cloneGlobals(m *Module) map[*Global]*Global {
	gmap := make(map[*Global]*Global, len(m.Globals))
	for i, g := range m.Globals {
		ng := &Global{Name: g.Name, Elem: g.Elem, Size: g.Size, Const: g.Const,
			InitI: g.InitI, InitF: g.InitF}
		gmap[g] = ng
		m.Globals[i] = ng
	}
	return gmap
}

// MaterializeModule gives m private copies of any COW-shared function bodies
// and globals, so passes may mutate it freely. Materialization is
// all-or-nothing: passes mutate globals in place, recycle the Globals slice
// backing array and rewrite Param fields, so once any body is shared the
// whole module (globals included) is deep-copied together. Reports whether a
// copy was made. No-op on a fully private module.
//
// The pass manager calls this before running any pass; direct mutators of
// cloned modules must do the same (the block mutators panic otherwise).
func MaterializeModule(m *Module) bool {
	shared := false
	for _, f := range m.Funcs {
		if f.isShared() {
			shared = true
			break
		}
	}
	if !shared {
		return false
	}
	cowMaterialized.Add(1)
	gmap := cloneGlobals(m)
	for i, f := range m.Funcs {
		m.Funcs[i] = cloneFunction(f, gmap)
	}
	return true
}

// CompactModule rebuilds every function of m into fresh dense arena slabs,
// without touching globals (the module keeps its identity; only bodies move).
// Used on long-lived modules built object-by-object (irgen / synth output) so
// that their clones are copied from contiguous memory. Must not be called on
// a module with shared bodies.
func CompactModule(m *Module) {
	for i, f := range m.Funcs {
		if f.isShared() {
			panic("ir: CompactModule on a COW-shared module")
		}
		m.Funcs[i] = cloneFunction(f, nil)
	}
}
