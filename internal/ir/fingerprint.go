package ir

import (
	"hash/fnv"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Fingerprint returns a cheap structural hash of the module: function
// signatures, block structure, every instruction's opcode/type/flags/operands
// (operands by their position in block order, blocks by index; a reference to
// an instruction or block outside the function hashes as 0), globals with
// their initialisers, and module meta.
// Two modules with equal fingerprints are structurally identical with
// overwhelming probability. No cache keys or deduplicates by it: it is a
// content digest for tests and the benchmark probe, and the oracle that
// StructurallyEqual (itself called only by tests) must agree with. Like every
// reader of a body in this package it renumbers the private bodies it walks
// (InstrsByID).
func (m *Module) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wi := func(v int64) { w64(uint64(v)) }
	ws := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	wty := func(t Type) { w64(typeWord(t)) }

	ws(m.Name)
	wi(int64(m.TargetVecWidth64))
	for _, k := range sortedMetaKeys(m.Meta) {
		ws(k)
	}
	for _, g := range m.Globals {
		ws(g.Name)
		wty(g.Elem)
		wi(int64(g.Size))
		if g.Const {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		for _, v := range g.InitI {
			wi(v)
		}
		for _, v := range g.InitF {
			w64(math.Float64bits(v))
		}
	}
	var tab []*Instr // one function's instructions in ID order, reused
	for _, f := range m.Funcs {
		ws(f.Name)
		wty(f.RetTy)
		wi(int64(f.Attrs))
		for _, p := range f.Params {
			wty(p.Ty)
		}
		if f.IsDecl {
			h.Write([]byte{2})
			continue
		}
		tab = f.InstrsByID(tab)
		for _, b := range f.Blocks {
			ws(b.Name)
			wi(int64(len(b.Instrs)))
			for _, in := range b.Instrs {
				w64(instrWord(in))
				wty(in.Ty)
				wty(in.AllocTy)
				ws(in.Callee)
				for _, op := range in.Ops {
					switch t := op.(type) {
					case *Instr:
						w64(1<<56 | uint64(localID(tab, t)))
					case *Param:
						w64(2<<56 | uint64(uint32(t.Index)))
					case *Global:
						h.Write([]byte{3})
						ws(t.Name)
					case *Const:
						w64(4 << 56)
						wty(t.Ty)
						wi(t.I)
						w64(math.Float64bits(t.F))
					default:
						w64(5 << 56)
					}
				}
				for _, tb := range in.Blocks {
					w64(6<<56 | uint64(f.localBlock(tb)))
				}
				for _, c := range in.Cases {
					wi(c)
				}
			}
		}
	}
	return h.Sum64()
}

// The packed words and local numbers Fingerprint hashes, shared with
// StructurallyEqual so the two cannot drift apart.

// typeWord packs a type as Fingerprint hashes it: kind and lane count.
func typeWord(t Type) uint64 { return uint64(t.Kind)<<32 | uint64(uint32(t.Lanes)) }

// instrWord packs an instruction's opcode, predicate, flags and alloca count.
func instrWord(in *Instr) uint64 {
	return uint64(in.Op) | uint64(in.Pred)<<8 | uint64(in.Flags)<<16 | uint64(uint32(in.NAlloc))<<32
}

// localID is the number an operand instruction hashes as: its ID when it is
// an instruction of the function tab numbers, else 0.
func localID(tab []*Instr, in *Instr) uint32 {
	if hasInstr(tab, in) {
		return uint32(in.ID)
	}
	return 0
}

// localBlock is the number a block reference hashes as: its index when b is
// a block of f, else 0.
func (f *Function) localBlock(b *Block) uint32 {
	if f.hasBlock(b) {
		return uint32(b.idx)
	}
	return 0
}

// StructurallyEqual reports whether a and b are the same code by the measure
// of Fingerprint: it compares exactly the fields Fingerprint hashes, in its
// encoding — an operand instruction or a branch target by its local number,
// with a reference outside the function counting as 0; a parameter by index
// only; a global by name; a constant by type, integer and float bits; only
// the meta keys set to true. It answers whether the fingerprints are equal,
// without hashing and so without collisions, walking both modules in
// lockstep and returning at the first difference.
//
// It numbers each body it compares as Fingerprint does (InstrsByID): a
// private body is renumbered, a COW-shared one only read, and a shared body
// whose numbering is not dense panics. After a true answer every private
// body of both modules is renumbered; a false answer may stop before the
// rest.
func StructurallyEqual(a, b *Module) bool {
	if a.Name != b.Name || a.TargetVecWidth64 != b.TargetVecWidth64 ||
		!sameMetaKeys(a.Meta, b.Meta) ||
		len(a.Globals) != len(b.Globals) || len(a.Funcs) != len(b.Funcs) {
		return false
	}
	for i, g := range a.Globals {
		if !globalsEqual(g, b.Globals[i]) {
			return false
		}
	}
	var ta, tb []*Instr // each side's instructions in ID order, reused
	for i, fa := range a.Funcs {
		fb := b.Funcs[i]
		if fa.Name != fb.Name || typeWord(fa.RetTy) != typeWord(fb.RetTy) || fa.Attrs != fb.Attrs ||
			fa.IsDecl != fb.IsDecl || len(fa.Params) != len(fb.Params) {
			return false
		}
		for j, p := range fa.Params {
			if typeWord(p.Ty) != typeWord(fb.Params[j].Ty) {
				return false
			}
		}
		if fa.IsDecl {
			continue // Fingerprint hashes no body of a declaration
		}
		if fa == fb {
			ta = fa.InstrsByID(ta) // number it as Fingerprint would; equal to itself
			continue
		}
		ta, tb = fa.InstrsByID(ta), fb.InstrsByID(tb)
		if !bodiesEqual(fa, ta, fb, tb) {
			return false
		}
	}
	return true
}

// bodiesEqual compares two numbered function bodies block by block.
func bodiesEqual(fa *Function, ta []*Instr, fb *Function, tb []*Instr) bool {
	if len(fa.Blocks) != len(fb.Blocks) {
		return false
	}
	for bi, ba := range fa.Blocks {
		bb := fb.Blocks[bi]
		if ba.Name != bb.Name || len(ba.Instrs) != len(bb.Instrs) {
			return false
		}
		for k, x := range ba.Instrs {
			y := bb.Instrs[k]
			if instrWord(x) != instrWord(y) || typeWord(x.Ty) != typeWord(y.Ty) ||
				typeWord(x.AllocTy) != typeWord(y.AllocTy) || x.Callee != y.Callee ||
				len(x.Ops) != len(y.Ops) || len(x.Blocks) != len(y.Blocks) ||
				!slices.Equal(x.Cases, y.Cases) {
				return false
			}
			for j, op := range x.Ops {
				if !operandsEqual(ta, op, tb, y.Ops[j]) {
					return false
				}
			}
			for j, t := range x.Blocks {
				if fa.localBlock(t) != fb.localBlock(y.Blocks[j]) {
					return false
				}
			}
		}
	}
	return true
}

// operandsEqual compares two operands as Fingerprint encodes them, each
// numbered against its own function's table.
func operandsEqual(ta []*Instr, x Value, tb []*Instr, y Value) bool {
	switch p := x.(type) {
	case *Instr:
		q, ok := y.(*Instr)
		return ok && localID(ta, p) == localID(tb, q)
	case *Param:
		q, ok := y.(*Param)
		return ok && uint32(p.Index) == uint32(q.Index)
	case *Global:
		q, ok := y.(*Global)
		return ok && p.Name == q.Name
	case *Const:
		q, ok := y.(*Const)
		return ok && typeWord(p.Ty) == typeWord(q.Ty) && p.I == q.I &&
			math.Float64bits(p.F) == math.Float64bits(q.F)
	}
	switch y.(type) {
	case *Instr, *Param, *Global, *Const:
		return false
	}
	return true // both hash as the "other value" tag
}

// globalsEqual compares two globals as Fingerprint encodes them. Clones share
// initialiser arrays, so equal backing arrays short-cut the element compare.
func globalsEqual(g, h *Global) bool {
	if g == h {
		return true
	}
	if g.Name != h.Name || typeWord(g.Elem) != typeWord(h.Elem) || g.Size != h.Size ||
		g.Const != h.Const || len(g.InitI) != len(h.InitI) || len(g.InitF) != len(h.InitF) {
		return false
	}
	if len(g.InitI) > 0 && &g.InitI[0] != &h.InitI[0] && !slices.Equal(g.InitI, h.InitI) {
		return false
	}
	if len(g.InitF) > 0 && &g.InitF[0] != &h.InitF[0] {
		for i, v := range g.InitF {
			if math.Float64bits(v) != math.Float64bits(h.InitF[i]) {
				return false
			}
		}
	}
	return true
}

// sameMetaKeys reports whether the keys set to true are the same in a and b:
// the sorted list Fingerprint hashes.
func sameMetaKeys(a, b map[string]bool) bool {
	n := 0
	for k, v := range a {
		if v {
			if !b[k] {
				return false
			}
			n++
		}
	}
	for _, v := range b {
		if v {
			n--
		}
	}
	return n == 0
}

func sortedMetaKeys(meta map[string]bool) []string {
	if len(meta) == 0 {
		return nil
	}
	keys := make([]string, 0, len(meta))
	for k, v := range meta {
		if v {
			keys = append(keys, k)
		}
	}
	// Insertion sort: meta maps hold a handful of entries.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Per-object sizes of the slab layout produced by cloneFunction and
// CompactModule — the layout every cached snapshot actually has. Derived
// from the real struct definitions so the estimate tracks layout changes.
// A function's lowered slot is the consumer's memory, not the snapshot's,
// and its analysis slot and a block's insertion log are a pass's; all three
// are left out.
const (
	sizeofInstr    = int64(unsafe.Sizeof(Instr{}))
	sizeofBlock    = int64(unsafe.Sizeof(Block{}) - unsafe.Sizeof(Block{}.ins))
	sizeofFunction = int64(unsafe.Sizeof(Function{}) - unsafe.Sizeof(Function{}.lowered) - unsafe.Sizeof(Function{}.cfg))
	sizeofGlobal   = int64(unsafe.Sizeof(Global{}))
	sizeofParam    = int64(unsafe.Sizeof(Param{}))
	sizeofModule   = int64(unsafe.Sizeof(Module{}))
	sizeofValue    = int64(unsafe.Sizeof(Value(nil))) // interface slot: 2 words
	ptrBytes       = int64(unsafe.Sizeof(uintptr(0)))
)

// ApproxBytes estimates the retained heap size of the module in bytes. The
// compile cache sums it over its entries for the cache_bytes Env counter row
// and PrefixCounters' byte result; no eviction reads it. It models the slab layout a materialized
// clone has: one Instr/Block slab per function plus the shared operand,
// successor, and membership arrays, with per-object sizes taken from the
// struct definitions via unsafe.Sizeof. Strings (names, callees) count their
// payload bytes. The estimate stays within a small constant factor of
// measured allocation for slab-built modules and is monotone in module size.
func (m *Module) ApproxBytes() int64 {
	total := sizeofModule + ptrBytes // module header + *Module handle
	for k := range m.Meta {
		total += int64(len(k)) + 16 // map entry: key bytes + bucket share
	}
	for _, g := range m.Globals {
		total += sizeofGlobal + ptrBytes + int64(len(g.Name)) +
			int64(len(g.InitI))*8 + int64(len(g.InitF))*8
	}
	for _, f := range m.Funcs {
		total += sizeofFunction + ptrBytes + int64(len(f.Name))
		total += int64(len(f.Params)) * (sizeofParam + ptrBytes) // slab + *Param slice
		for _, b := range f.Blocks {
			// Block slab slot + Blocks slice entry + membership slice headroom.
			total += sizeofBlock + ptrBytes + int64(len(b.Name))
			total += int64(len(b.Instrs)) * (sizeofInstr + ptrBytes)
			for _, in := range b.Instrs {
				total += int64(len(in.Ops))*sizeofValue +
					int64(len(in.Blocks))*ptrBytes +
					int64(len(in.Cases))*8 +
					int64(len(in.Callee))
			}
		}
	}
	return total
}
