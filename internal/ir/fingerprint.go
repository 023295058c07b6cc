package ir

import (
	"hash/fnv"
	"io"
	"math"
	"unsafe"
)

// Fingerprint returns a cheap structural hash of the module: function
// signatures, block structure, every instruction's opcode/type/flags/operands
// (operands by their position in block order, blocks by index; a reference to
// an instruction or block outside the function hashes as 0), globals with
// their initialisers, and module meta.
// Two modules with equal fingerprints are structurally identical with
// overwhelming probability; the compilation caches use it to deduplicate
// snapshots and key compiled states.
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
	wty := func(t Type) { w64(uint64(t.Kind)<<32 | uint64(uint32(t.Lanes))) }

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
		tab = f.instrsByID(tab)
		for _, b := range f.Blocks {
			ws(b.Name)
			wi(int64(len(b.Instrs)))
			for _, in := range b.Instrs {
				w64(uint64(in.Op) | uint64(in.Pred)<<8 | uint64(in.Flags)<<16 | uint64(uint32(in.NAlloc))<<32)
				wty(in.Ty)
				wty(in.AllocTy)
				ws(in.Callee)
				for _, op := range in.Ops {
					switch t := op.(type) {
					case *Instr:
						id := 0
						if hasInstr(tab, t) {
							id = t.ID
						}
						w64(1<<56 | uint64(uint32(id)))
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
					var bi int32
					if f.hasBlock(tb) {
						bi = tb.idx
					}
					w64(6<<56 | uint64(uint32(bi)))
				}
				for _, c := range in.Cases {
					wi(c)
				}
			}
		}
	}
	return h.Sum64()
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
const (
	sizeofInstr    = int64(unsafe.Sizeof(Instr{}))
	sizeofBlock    = int64(unsafe.Sizeof(Block{}))
	sizeofFunction = int64(unsafe.Sizeof(Function{}))
	sizeofGlobal   = int64(unsafe.Sizeof(Global{}))
	sizeofParam    = int64(unsafe.Sizeof(Param{}))
	sizeofModule   = int64(unsafe.Sizeof(Module{}))
	sizeofValue    = int64(unsafe.Sizeof(Value(nil))) // interface slot: 2 words
	ptrBytes       = int64(unsafe.Sizeof(uintptr(0)))
)

// ApproxBytes estimates the retained heap size of the module in bytes, for
// byte-budgeted cache eviction. It models the slab layout a materialized
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
