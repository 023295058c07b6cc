package ir

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// eqTestModule builds a module from a seed with something of every kind
// Fingerprint hashes: meta, a global with integer and one with float
// initialisers, a loop with phis and a diamond, calls and a declaration.
// Two builds from one seed are the same code in distinct objects.
func eqTestModule(seed int64) *Module {
	m := randModule(seed)
	m.SetMeta("builtins-pure")
	m.TargetVecWidth64 = 4
	m.Globals = append(m.Globals, &Global{Name: "h", Elem: F64T, Size: 3, Const: true,
		InitF: []float64{0.5, math.Copysign(0, -1), math.NaN()}})
	ext := &Function{Name: "ext", RetTy: I64T, IsDecl: true, Params: []*Param{{Name: "a", Ty: I64T}}}
	m.Funcs = append(m.Funcs, usesTestFunc(seed), ext)
	return m
}

// dense reports whether every private body of m carries the block-order
// numbering Renumber writes: what Fingerprint leaves behind.
func dense(m *Module) bool {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		id := 0
		for bi, b := range f.Blocks {
			if b.idx != int32(bi) {
				return false
			}
			for _, in := range b.Instrs {
				if in.ID != id {
					return false
				}
				id++
			}
		}
	}
	return true
}

// checkEqualMatchesFingerprint holds StructurallyEqual to the hash it stands
// in for, both ways round, and to the numbering a true answer promises. The
// comparison runs first, on whatever numbering the bodies have.
func checkEqualMatchesFingerprint(t *testing.T, a, b *Module) bool {
	t.Helper()
	got := StructurallyEqual(a, b)
	if got && (!dense(a) || !dense(b)) {
		t.Fatal("StructurallyEqual answered true but left a private body unnumbered")
	}
	if back := StructurallyEqual(b, a); back != got {
		t.Fatalf("StructurallyEqual(a, b) = %v, StructurallyEqual(b, a) = %v", got, back)
	}
	if want := a.Fingerprint() == b.Fingerprint(); got != want {
		t.Fatalf("StructurallyEqual = %v, fingerprints equal = %v", got, want)
	}
	return got
}

// firstOp returns the first instruction of f with at least one operand.
func firstOp(f *Function) *Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if len(in.Ops) > 0 {
				return in
			}
		}
	}
	panic("no instruction with operands")
}

// firstBranch returns the first instruction of f with a block reference.
func firstBranch(f *Function) *Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if len(in.Blocks) > 0 {
				return in
			}
		}
	}
	panic("no branch")
}

// The crafted cases: each pairs a module with a variant and states whether
// the two are the same code. Every case is also held to the fingerprints,
// so a case states the hash's encoding as much as the comparison's.
func TestStructurallyEqualCrafted(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // another NaN payload
	const k = 1                                                    // usesTestFunc's index in eqTestModule
	for _, tc := range []struct {
		name  string
		edit  func(a, b *Module)
		equal bool
	}{
		{"same code, distinct objects", func(a, b *Module) {}, true},
		{"foreign instruction vs local ID 0", func(a, b *Module) {
			firstOp(a.Funcs[k]).Ops[0] = a.Funcs[k].Blocks[0].Instrs[0]
			firstOp(b.Funcs[k]).Ops[0] = &Instr{Op: OpLoad, Ty: I64T, ID: 3}
		}, true},
		{"foreign instruction vs local ID 1", func(a, b *Module) {
			a.Funcs[k].Renumber()
			firstOp(a.Funcs[k]).Ops[0] = a.Funcs[k].Blocks[0].Instrs[1]
			firstOp(b.Funcs[k]).Ops[0] = eqTestModule(9).Funcs[k].Blocks[0].Instrs[1]
		}, false},
		{"foreign block vs block 0", func(a, b *Module) {
			firstBranch(a.Funcs[k]).Blocks[0] = a.Funcs[k].Blocks[0]
			firstBranch(b.Funcs[k]).Blocks[0] = eqTestModule(9).Funcs[k].Blocks[0]
		}, true},
		{"foreign block vs block 1", func(a, b *Module) {
			firstBranch(a.Funcs[k]).Blocks[0] = a.Funcs[k].Blocks[1]
			firstBranch(b.Funcs[k]).Blocks[0] = &Block{Name: "gone", idx: 1}
		}, false},
		{"another function's param at the same index", func(a, b *Module) {
			firstOp(a.Funcs[k]).Ops[0] = a.Funcs[k].Params[1]
			firstOp(b.Funcs[k]).Ops[0] = &Param{Name: "other", Ty: F64T, Index: 1}
		}, true},
		{"param at another index", func(a, b *Module) {
			firstOp(a.Funcs[k]).Ops[0] = a.Funcs[k].Params[1]
			firstOp(b.Funcs[k]).Ops[0] = b.Funcs[k].Params[0]
		}, false},
		{"global by name", func(a, b *Module) {
			firstOp(b.Funcs[k]).Ops[0] = &Global{Name: "g", Elem: F32T, Size: 99}
			firstOp(a.Funcs[k]).Ops[0] = &Global{Name: "g"}
		}, true},
		{"meta key set to false vs absent", func(a, b *Module) { b.Meta["unset"] = false }, true},
		{"meta key set to true vs absent", func(a, b *Module) { b.Meta["set"] = true }, false},
		{"no meta vs meta all false", func(a, b *Module) {
			a.Meta = nil
			b.Meta = map[string]bool{"builtins-pure": false}
		}, true},
		{"NaN constants with equal bits", func(a, b *Module) {
			firstOp(a.Funcs[k]).Ops[0] = ConstFloat(F64T, math.NaN())
			firstOp(b.Funcs[k]).Ops[0] = ConstFloat(F64T, math.NaN())
		}, true},
		{"NaN constants with other payloads", func(a, b *Module) {
			firstOp(a.Funcs[k]).Ops[0] = ConstFloat(F64T, math.NaN())
			firstOp(b.Funcs[k]).Ops[0] = ConstFloat(F64T, nan2)
		}, false},
		{"-0 vs +0 constant", func(a, b *Module) {
			firstOp(a.Funcs[k]).Ops[0] = ConstFloat(F64T, 0)
			firstOp(b.Funcs[k]).Ops[0] = ConstFloat(F64T, math.Copysign(0, -1))
		}, false},
		{"constant of another type", func(a, b *Module) {
			firstOp(b.Funcs[k]).Ops[0] = ConstInt(I32T, 7)
			firstOp(a.Funcs[k]).Ops[0] = ConstInt(I64T, 7)
		}, false},
		{"-0 vs +0 initialiser", func(a, b *Module) { b.Globals[1].InitF = []float64{0.5, 0, math.NaN()} }, false},
		{"NaN initialisers in distinct arrays", func(a, b *Module) {
			b.Globals[1].InitF = append([]float64(nil), b.Globals[1].InitF...)
		}, true},
		{"declarations with different bodies", func(a, b *Module) {
			b.Funcs[2].Blocks = b.Funcs[1].Blocks
		}, true},
		{"declaration vs empty definition", func(a, b *Module) { b.Funcs[2].IsDecl = false }, false},
		{"declaration with another param type", func(a, b *Module) { b.Funcs[2].Params[0].Ty = F64T }, false},
		{"alloca count -1 vs 2^32-1", func(a, b *Module) {
			firstOp(a.Funcs[k]).NAlloc = -1
			firstOp(b.Funcs[k]).NAlloc = math.MaxUint32
		}, true},
		{"nil operands", func(a, b *Module) {
			firstOp(b.Funcs[k]).Ops[0] = nil
			firstOp(a.Funcs[k]).Ops[0] = nil
		}, true},
		{"nil vs constant", func(a, b *Module) { firstOp(b.Funcs[k]).Ops[0] = nil }, false},
		{"switch cases", func(a, b *Module) {
			firstBranch(b.Funcs[k]).Cases = []int64{1}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := eqTestModule(5), eqTestModule(5)
			tc.edit(a, b)
			if got := checkEqualMatchesFingerprint(t, a, b); got != tc.equal {
				t.Fatalf("StructurallyEqual = %v, want %v", got, tc.equal)
			}
			// The same through COW-shared bodies, which the comparison only reads.
			if got := checkEqualMatchesFingerprint(t, a.Clone(), b.Clone()); got != tc.equal {
				t.Fatalf("shared bodies: StructurallyEqual = %v, want %v", got, tc.equal)
			}
		})
	}
}

// The shared-pointer paths: a module against its own clone shares every body
// and global, and a module against itself still numbers its private bodies
// as Fingerprint would.
func TestStructurallyEqualSharedPointers(t *testing.T) {
	m := eqTestModule(3)
	c := m.Clone()
	if !StructurallyEqual(m, c) || !StructurallyEqual(c, m) {
		t.Fatal("a module differs from its COW clone")
	}
	MaterializeModule(c)
	if !checkEqualMatchesFingerprint(t, m, c) {
		t.Fatal("a module differs from its materialized clone")
	}

	m = eqTestModule(3)
	f := m.Funcs[1]
	f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1] // stale block indexes
	f.Blocks[0].RemoveAt(0)                             // stale IDs
	if dense(m) {
		t.Fatal("the edit left the numbering dense: the test proves nothing")
	}
	if !StructurallyEqual(m, m) {
		t.Fatal("a module differs from itself")
	}
	if !dense(m) {
		t.Fatal("comparing a module with itself left a private body unnumbered")
	}
}

// A shared body with a stale number is a broken invariant, reported as
// Fingerprint reports it, and never repaired by a reader.
func TestStructurallyEqualSharedBodyNotDensePanics(t *testing.T) {
	m, f := buildCountdown()
	c := m.Clone()
	o, _ := buildCountdown()
	f.Blocks[1].Instrs[0].ID = 40
	if got := panicText(func() { StructurallyEqual(o, c) }); !strings.Contains(got, "non-dense numbering on a COW-shared body") {
		t.Errorf("comparing a shared body with a stale ID: panic %q", got)
	}
	if f.Blocks[1].Instrs[0].ID != 40 {
		t.Error("the comparison renumbered a shared body")
	}
}

// mutateForEquality applies one scripted edit to m: the fields Fingerprint
// hashes, the references it numbers (local, foreign, another function's), and
// the edits that leave numbers stale. other supplies foreign objects.
func mutateForEquality(m, other *Module, op, arg byte) {
	f := m.Funcs[1] // usesTestFunc's body, or randModule's main
	if arg&0x80 != 0 {
		f = m.Funcs[0]
	}
	var all []*Instr
	for _, b := range f.Blocks {
		all = append(all, b.Instrs...)
	}
	in := all[int(arg)%len(all)]
	pickOp := func() *Instr {
		for i := 0; i < len(all); i++ {
			if x := all[(int(arg)+i)%len(all)]; len(x.Ops) > 0 {
				return x
			}
		}
		return nil
	}
	pickBr := func() *Instr {
		for i := 0; i < len(all); i++ {
			if x := all[(int(arg)+i)%len(all)]; len(x.Blocks) > 0 {
				return x
			}
		}
		return nil
	}
	of := other.Funcs[1]
	switch op % 24 {
	case 0:
		in.Op = Op(arg % 48)
	case 1:
		in.Pred = CmpPred(arg % 8)
	case 2:
		in.Flags = InstrFlags(arg % 4)
	case 3:
		in.NAlloc = int(arg%4) - 1
	case 4:
		in.NAlloc = math.MaxUint32 - int(arg%2)
	case 5:
		in.Ty.Lanes = int(arg%3) + 1
	case 6:
		in.AllocTy = Type{Kind(arg % 9), 1}
	case 7:
		in.Callee = []string{"", "sim.out.i64", "f"}[arg%3]
	case 8:
		if x := pickOp(); x != nil {
			x.Ops[0] = all[int(arg/3)%len(all)]
		}
	case 9:
		if x := pickOp(); x != nil {
			x.Ops[0] = of.Blocks[0].Instrs[int(arg)%len(of.Blocks[0].Instrs)] // foreign
		}
	case 10:
		if x := pickOp(); x != nil {
			x.Ops[0] = all[0] // local ID 0
		}
	case 11:
		if x := pickOp(); x != nil {
			x.Ops[0] = of.Params[int(arg)%len(of.Params)] // another function's param
		}
	case 12:
		if x := pickOp(); x != nil && len(f.Params) > 0 {
			x.Ops[0] = f.Params[int(arg)%len(f.Params)]
		}
	case 13:
		if x := pickOp(); x != nil {
			x.Ops[len(x.Ops)-1] = []*Const{
				ConstFloat(F64T, math.NaN()), ConstFloat(F64T, math.Copysign(0, -1)), ConstFloat(F64T, 0),
				ConstInt(I64T, 0), ConstInt(I32T, 0), ConstInt(I64T, 1),
			}[arg%6]
		}
	case 14:
		if x := pickOp(); x != nil {
			x.Ops[0] = &Global{Name: []string{"g", "h"}[arg%2]}
		}
	case 15:
		if x := pickBr(); x != nil {
			x.Blocks[0] = []*Block{f.Blocks[0], of.Blocks[0], f.Blocks[len(f.Blocks)-1], of.Blocks[1]}[arg%4]
		}
	case 16:
		if m.Meta == nil {
			m.Meta = map[string]bool{}
		}
		m.Meta[[]string{"builtins-pure", "x"}[arg%2]] = arg&4 != 0
	case 17:
		g := m.Globals[0]
		g.InitI = append([]int64(nil), g.InitI...) // initialiser arrays are shared, never written
		g.InitI[int(arg)%len(g.InitI)] ^= 1
	case 18:
		if len(all) > 2 {
			b := in.Parent()
			b.RemoveAt(b.IndexOf(in)) // stale IDs; its users now reference a foreign value
		}
	case 19:
		b := in.Parent()
		cp := *in
		cp.Ops = append([]Value(nil), in.Ops...)
		b.InsertBefore(b.IndexOf(in), &cp)
	case 20:
		in.Parent().Name = []string{"entry", "t", "x"}[arg%3]
	case 21:
		if n := len(f.Blocks); n > 2 {
			i, j := 1+int(arg)%(n-1), 1+int(arg/7)%(n-1)
			f.Blocks[i], f.Blocks[j] = f.Blocks[j], f.Blocks[i] // stale block indexes
		}
	case 22:
		if x := pickBr(); x != nil {
			x.Cases = append(x.Cases, int64(arg%3))
		}
	case 23:
		f.Attrs ^= FuncAttrs(1 << (arg % 5))
	}
}

// equalityScript builds two modules from seed, edits them by script (even
// pairs edit a, odd pairs b), and holds the comparison to the fingerprints,
// on private and then on COW-shared bodies.
func equalityScript(t *testing.T, seed int64, script []byte) bool {
	a, b := eqTestModule(seed), eqTestModule(seed)
	other := eqTestModule(seed + 1)
	for i := 0; i+1 < len(script); i += 2 {
		target := a
		if i/2%2 == 1 {
			target = b
		}
		mutateForEquality(target, other, script[i], script[i+1])
	}
	equal := checkEqualMatchesFingerprint(t, a, b)
	checkEqualMatchesFingerprint(t, a.Clone(), b.Clone())
	return equal
}

func FuzzStructurallyEqualMatchesFingerprint(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{9, 3, 10, 3})
	f.Add(int64(3), []byte{11, 1, 12, 1, 16, 0, 16, 4})
	f.Add(int64(4), []byte{15, 1, 15, 0, 18, 5, 21, 9})
	f.Add(int64(5), []byte{3, 0, 4, 1, 13, 0, 13, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		equalityScript(t, seed, script)
	})
}

// TestStructurallyEqualRandomScripts runs the fuzz body over generated
// scripts, short ones so that equal pairs are common, so plain `go test`
// covers both answers.
func TestStructurallyEqualRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	equal := 0
	const n = 2000
	for i := 0; i < n; i++ {
		script := make([]byte, 2*rng.Intn(4))
		rng.Read(script)
		if equalityScript(t, int64(i%50), script) {
			equal++
		}
	}
	t.Logf("%d equal and %d unequal pairs", equal, n-equal)
	if equal < n/10 || equal > n-n/10 {
		t.Fatalf("%d of %d pairs equal: the scripts exercise one answer only", equal, n)
	}
}
