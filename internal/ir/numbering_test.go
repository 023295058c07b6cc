package ir

import (
	"fmt"
	"strings"
	"testing"
)

// countdownParts returns the pieces of a fresh buildCountdown the numbering
// tests rewire: the add in the loop body, the conditional branch of the
// header, and the function's first instruction.
func countdownParts() (m *Module, f *Function, add, br, first *Instr) {
	m, f = buildCountdown()
	return m, f, f.Blocks[2].Instrs[2], f.Blocks[1].Term(), f.Blocks[0].Instrs[0]
}

// A reference to an instruction or block that is not in the function hashes
// as number 0: the value the prefix cache's share-or-clone decisions, and so
// the recorded tuning results, were made against. The dangling objects carry
// an in-range ID / block index, so a lookup by number without the identity
// check would hash them as local.
func TestDanglingReferenceFingerprintsAsZero(t *testing.T) {
	_, _, otherAdd, otherBr, _ := countdownParts() // same numbers, another function
	otherAdd.Parent().Parent().Renumber()
	for _, tc := range []struct {
		name   string
		rewire func(f *Function, add, br, first *Instr, dangling bool)
	}{
		{"operand", func(f *Function, add, br, first *Instr, dangling bool) {
			add.Ops[1] = first
			if dangling {
				add.Ops[1] = &Instr{Op: OpLoad, Ty: I64T, ID: add.ID - 1}
			}
		}},
		{"spliced operand", func(f *Function, add, br, first *Instr, dangling bool) {
			add.Ops[1] = first
			if dangling {
				add.Ops[1] = otherAdd.Ops[1]
			}
		}},
		{"branch target", func(f *Function, add, br, first *Instr, dangling bool) {
			br.Blocks[1] = f.Blocks[0]
			if dangling {
				br.Blocks[1] = &Block{Name: "gone", idx: 3}
			}
		}},
		{"spliced branch target", func(f *Function, add, br, first *Instr, dangling bool) {
			br.Blocks[1] = f.Blocks[0]
			if dangling {
				br.Blocks[1] = otherBr.Blocks[1]
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			intact, _, _, _, _ := countdownParts()
			zero, zf, zadd, zbr, zfirst := countdownParts()
			tc.rewire(zf, zadd, zbr, zfirst, false)
			dang, df, dadd, dbr, dfirst := countdownParts()
			df.Renumber() // so the dangling stand-ins can copy a live number
			tc.rewire(df, dadd, dbr, dfirst, true)

			if zero.Fingerprint() == intact.Fingerprint() {
				t.Fatal("rewiring the reference to number 0 does not change the fingerprint: the test proves nothing")
			}
			if got, want := dang.Fingerprint(), zero.Fingerprint(); got != want {
				t.Fatalf("private body: dangling reference fingerprints as %016x, a reference to number 0 as %016x", got, want)
			}
			// The same through a COW-shared body, which Fingerprint only reads.
			if got, want := dang.Clone().Fingerprint(), zero.Fingerprint(); got != want {
				t.Fatalf("shared body: dangling reference fingerprints as %016x, a reference to number 0 as %016x", got, want)
			}
		})
	}
}

func panicText(fn func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// Clone keeps its two panics, with their texts: bench.recoverCompile turns
// them into the rejected candidates the benchmark harness counts per class.
func TestCloneRejectsDanglingReferences(t *testing.T) {
	_, _, otherAdd, otherBr, _ := countdownParts()
	otherAdd.Parent().Parent().Renumber()

	_, f, add, _, _ := countdownParts()
	add.Ops[1] = otherAdd.Ops[1] // in range, right number, wrong function
	if got, want := panicText(func() { CloneFunction(f) }), "ir: clone: operand instruction not in function sum"; got != want {
		t.Errorf("dangling operand: panic %q, want %q", got, want)
	}

	_, f, _, br, _ := countdownParts()
	br.Blocks[0] = otherBr.Blocks[0]
	if got, want := panicText(func() { CloneFunction(f) }), "ir: clone: target block not in function sum"; got != want {
		t.Errorf("foreign branch target: panic %q, want %q", got, want)
	}

	// Verify reports both as errors, not panics.
	m, _, add, _, _ := countdownParts()
	add.Ops[1] = otherAdd.Ops[1]
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "defined outside function") {
		t.Errorf("dangling operand: Verify = %v", err)
	}
	m, _, _, br, _ = countdownParts()
	br.Blocks[0] = otherBr.Blocks[0]
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "references foreign block") {
		t.Errorf("foreign branch target: Verify = %v", err)
	}
}

// Renumber is the one writer of Instr.ID and the block index: dense from
// zero in block order, whatever the history of the body.
func TestRenumberIsDenseBlockOrder(t *testing.T) {
	_, f := buildCountdown()
	// Leave the numbering as a pass would: a removal, an insertion, a block
	// moved to the front of the non-entry blocks.
	f.Blocks[2].RemoveAt(5)
	f.Blocks[3].InsertBefore(0, &Instr{Op: OpAdd, Ty: I64T, Ops: []Value{ConstInt(I64T, 1), ConstInt(I64T, 2)}, ID: 99})
	f.Blocks[1], f.Blocks[3] = f.Blocks[3], f.Blocks[1]
	// The inliner's callee: a clone straight off a private, stale body.
	nf := CloneFunction(f)
	if got, want := nf.String(), f.String(); got != want || nf.Renumber() != f.NumInstrs() {
		t.Fatalf("clone of a stale private body prints\n%s\nits source\n%s", got, want)
	}
	f.Blocks[0].Instrs[0].ID = 7 // CloneFunction renumbered f; make it stale again
	if got, want := f.Renumber(), f.NumInstrs(); got != want {
		t.Fatalf("Renumber() = %d, NumInstrs() = %d", got, want)
	}
	id := 0
	for bi, b := range f.Blocks {
		if int(b.idx) != bi || !f.hasBlock(b) {
			t.Fatalf("block %s at position %d has index %d", b.Name, bi, b.idx)
		}
		for _, in := range b.Instrs {
			if in.ID != id {
				t.Fatalf("instruction %d of block order has ID %d", id, in.ID)
			}
			id++
		}
	}
	tab := f.instrsByID(nil)
	for k, in := range tab {
		if in.ID != k || !hasInstr(tab, in) {
			t.Fatalf("instrsByID[%d] has ID %d", k, in.ID)
		}
	}
}

// A reader must never write to a COW-shared body — other goroutines are
// reading it — so one whose numbering is not the dense one Clone left is a
// broken invariant, reported by name, not repaired.
func TestSharedBodyNotDensePanics(t *testing.T) {
	m, f := buildCountdown()
	c := m.Clone()
	f.Blocks[1].Instrs[0].ID = 40 // what a write past guardMutable would do
	for name, read := range map[string]func(){
		"Fingerprint": func() { c.Fingerprint() },
		"Verify":      func() { Verify(c) },
		"Materialize": func() { MaterializeModule(c) },
	} {
		if got := panicText(read); !strings.Contains(got, "non-dense numbering on a COW-shared body") {
			t.Errorf("%s of a shared body with a stale ID: panic %q", name, got)
		}
	}
	if f.Blocks[1].Instrs[0].ID != 40 {
		t.Error("a reader renumbered a shared body")
	}
}
