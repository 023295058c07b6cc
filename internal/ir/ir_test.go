package ir

import (
	"slices"
	"strings"
	"testing"
)

// buildCountdown builds: f(n) { s=0; for(i=0;i<n;i++) s+=i; return s }
// in non-promoted (alloca) form, mirroring what irgen emits.
func buildCountdown() (*Module, *Function) {
	m := &Module{Name: "t"}
	bd := NewBuilder(m)
	f := bd.NewFunction("sum", I64T, I64T)
	n := f.Params[0]

	sVar := bd.Alloca(I64T, 1)
	iVar := bd.Alloca(I64T, 1)
	bd.Store(ConstInt(I64T, 0), sVar)
	bd.Store(ConstInt(I64T, 0), iVar)
	header := bd.NewBlock("header")
	body := bd.NewBlock("body")
	exit := bd.NewBlock("exit")
	bd.Jmp(header)

	bd.SetBlock(header)
	iv := bd.Load(I64T, iVar)
	cond := bd.ICmp(CmpSLT, iv, n)
	bd.Br(cond, body, exit)

	bd.SetBlock(body)
	s := bd.Load(I64T, sVar)
	i2 := bd.Load(I64T, iVar)
	s2 := bd.Bin(OpAdd, s, i2)
	bd.Store(s2, sVar)
	i3 := bd.Bin(OpAdd, i2, ConstInt(I64T, 1))
	bd.Store(i3, iVar)
	bd.Jmp(header)

	bd.SetBlock(exit)
	ret := bd.Load(I64T, sVar)
	bd.Ret(ret)
	return m, f
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	m, _ := buildCountdown()
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m, f := buildCountdown()
	b := f.Blocks[len(f.Blocks)-1]
	b.Instrs = b.Instrs[:len(b.Instrs)-1] // drop ret
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "not terminated") {
		t.Fatalf("expected termination error, got %v", err)
	}
}

func TestVerifyCatchesUseBeforeDef(t *testing.T) {
	m, f := buildCountdown()
	entry := f.Entry()
	// Move the first load (in header) into entry before its dependencies? No:
	// instead swap two dependent instructions in body.
	body := f.Blocks[2]
	body.Instrs[2], body.Instrs[0] = body.Instrs[0], body.Instrs[2]
	_ = entry
	if err := Verify(m); err == nil {
		t.Fatal("expected use-before-def error")
	}
}

func TestVerifyCatchesPhiArityMismatch(t *testing.T) {
	m, f := buildCountdown()
	header := f.Blocks[1]
	phi := &Instr{Op: OpPhi, Ty: I64T}
	AddIncoming(phi, ConstInt(I64T, 0), f.Entry())
	// header has two preds (entry, body) but phi only one incoming.
	header.InsertBefore(0, phi)
	if err := Verify(m); err == nil {
		t.Fatal("expected phi arity error")
	}
}

// An alloca must allocate at least one element of a non-void type.
func TestVerifyCatchesShapelessAlloca(t *testing.T) {
	for _, shape := range []struct {
		ty Type
		n  int
	}{{VoidT, 1}, {I64T, 0}, {VoidT, 0}} {
		m, f := buildCountdown()
		a := f.Entry().Instrs[0]
		a.AllocTy, a.NAlloc = shape.ty, shape.n
		if err := Verify(m); err == nil || !strings.Contains(err.Error(), "alloca in entry allocates") {
			t.Fatalf("alloca %d x %s: expected alloca error, got %v", shape.n, shape.ty, err)
		}
	}
}

func TestCFGAndDominators(t *testing.T) {
	m, f := buildCountdown()
	_ = m
	cfg := BuildCFG(f)
	entry, header, body, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if len(cfg.Succs(entry)) != 1 || cfg.Succs(entry)[0] != header {
		t.Fatal("entry successor wrong")
	}
	if len(cfg.Preds(header)) != 2 {
		t.Fatalf("header should have 2 preds, got %d", len(cfg.Preds(header)))
	}
	dt := BuildDomTree(cfg)
	if !dt.Dominates(entry, exit) || !dt.Dominates(header, body) {
		t.Fatal("dominance wrong")
	}
	if dt.Dominates(body, exit) {
		t.Fatal("body should not dominate exit")
	}
	rpo := cfg.ReversePostOrder()
	if rpo[0] != entry {
		t.Fatal("rpo must start at entry")
	}
}

func TestLoopDetection(t *testing.T) {
	m, f := buildCountdown()
	_ = m
	cfg := BuildCFG(f)
	dt := BuildDomTree(cfg)
	li := FindLoops(cfg, dt)
	if len(li.Loops) != 1 {
		t.Fatalf("expected 1 loop, got %d", len(li.Loops))
	}
	l := li.Loops[0]
	if l.Header != f.Blocks[1] || l.Latch != f.Blocks[2] {
		t.Fatal("loop header/latch wrong")
	}
	if l.Preheader != f.Entry() {
		t.Fatal("preheader wrong")
	}
	if l.Depth != 1 {
		t.Fatalf("depth = %d", l.Depth)
	}
}

func TestCanonicalIVAndTripCount(t *testing.T) {
	// SSA-form loop with known trip count 10.
	m := &Module{Name: "t"}
	bd := NewBuilder(m)
	f := bd.NewFunction("f", I64T)
	header := bd.NewBlock("header")
	body := bd.NewBlock("body")
	exit := bd.NewBlock("exit")
	bd.Jmp(header)

	bd.SetBlock(header)
	phi := bd.Phi(I64T)
	cond := bd.ICmp(CmpSLT, phi, ConstInt(I64T, 10))
	bd.Br(cond, body, exit)

	bd.SetBlock(body)
	next := bd.Bin(OpAdd, phi, ConstInt(I64T, 1))
	bd.Jmp(header)

	AddIncoming(phi, ConstInt(I64T, 0), f.Entry())
	AddIncoming(phi, next, body)

	bd.SetBlock(exit)
	bd.Ret(phi)

	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	cfg := BuildCFG(f)
	dt := BuildDomTree(cfg)
	li := FindLoops(cfg, dt)
	if len(li.Loops) != 1 {
		t.Fatalf("loops = %d", len(li.Loops))
	}
	iv := FindCanonicalIV(cfg, li.Loops[0])
	if iv == nil {
		t.Fatal("no canonical IV found")
	}
	if iv.Step != 1 {
		t.Fatalf("step = %d", iv.Step)
	}
	if tc := iv.TripCount(); tc != 10 {
		t.Fatalf("trip count = %d, want 10", tc)
	}
}

// RemoveIf is RemoveAt for a whole block at once: same survivors in the same
// order, removed instructions detached, and the same refusal to touch a
// COW-shared body.
func TestRemoveIfCompactsInPlace(t *testing.T) {
	_, f := buildCountdown()
	_, want := buildCountdown()
	b, wb := f.Blocks[2], want.Blocks[2]
	if len(b.Instrs) < 6 {
		t.Fatalf("block too short for the test: %d instructions", len(b.Instrs))
	}
	doomed := map[*Instr]bool{b.Instrs[0]: true, b.Instrs[3]: true, b.Instrs[4]: true}
	for i := len(wb.Instrs) - 1; i >= 0; i-- {
		if doomed[b.Instrs[i]] {
			wb.RemoveAt(i)
		}
	}
	var seen []*Instr
	all := append([]*Instr(nil), b.Instrs...)
	if n := b.RemoveIf(func(in *Instr) bool { seen = append(seen, in); return doomed[in] }); n != 3 {
		t.Fatalf("RemoveIf removed %d, want 3", n)
	}
	if !slices.Equal(seen, all) {
		t.Fatal("RemoveIf did not show the predicate every instruction once, in block order")
	}
	if got, want := f.String(), want.String(); got != want {
		t.Fatalf("RemoveIf left\n%s\nRemoveAt leaves\n%s", got, want)
	}
	for in := range doomed {
		if in.Parent() != nil {
			t.Fatal("a removed instruction still has a parent")
		}
	}
	for _, in := range b.Instrs {
		if in.Parent() != b {
			t.Fatal("a survivor lost its parent")
		}
	}

	m, f := buildCountdown()
	m.Clone() // f is now shared
	if n := f.Blocks[2].RemoveIf(func(*Instr) bool { return false }); n != 0 {
		t.Fatalf("RemoveIf removed %d of a shared body", n)
	}
	if got := panicText(func() { f.Blocks[2].RemoveIf(func(*Instr) bool { return true }) }); !strings.Contains(got, "COW-shared") {
		t.Fatalf("RemoveIf on a shared body: panic %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, f := buildCountdown()
	c := m.Clone()
	if err := Verify(c); err != nil {
		t.Fatalf("clone verify: %v", err)
	}
	// Clone is copy-on-write: bodies are shared until materialized.
	if cf := c.Func("sum"); cf != f {
		t.Fatal("COW clone copied the function eagerly")
	}
	if !f.Shared() {
		t.Fatal("COW clone did not flag the body shared")
	}
	if !MaterializeModule(c) {
		t.Fatal("materialize reported no shared bodies")
	}
	cf := c.Func("sum")
	if cf == f {
		t.Fatal("materialize returned same function")
	}
	// Mutating the clone must not affect the original.
	cf.Blocks[0].RemoveAt(0)
	if f.NumInstrs() == cf.NumInstrs() {
		t.Fatal("clone mutation leaked to original")
	}
	// All operand instructions in the clone must belong to the clone.
	orig := make(map[*Instr]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			orig[in] = true
		}
	}
	for _, b := range cf.Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Ops {
				if oi, ok := op.(*Instr); ok && orig[oi] {
					t.Fatal("clone references original instruction")
				}
			}
		}
	}
}

func TestReplaceAllUsesAndCounts(t *testing.T) {
	m, f := buildCountdown()
	_ = m
	body := f.Blocks[2]
	i2 := body.Instrs[1] // load iVar
	n := CountUses(f, i2)
	if n != 2 {
		t.Fatalf("uses = %d, want 2", n)
	}
	k := ReplaceAllUses(f, i2, ConstInt(I64T, 7))
	if k != 2 || HasUses(f, i2) {
		t.Fatal("replace failed")
	}
}

func TestPrinterSmoke(t *testing.T) {
	m, _ := buildCountdown()
	s := m.String()
	for _, want := range []string{"define i64 @sum", "alloca", "icmp slt", "br", "ret"} {
		if !strings.Contains(s, want) {
			t.Fatalf("printer output missing %q:\n%s", want, s)
		}
	}
}

func TestTypeProperties(t *testing.T) {
	if !I32T.Kind.IsInt() || I32T.Kind.IsFloat() {
		t.Fatal("i32 kind wrong")
	}
	if !F64T.Kind.IsFloat() {
		t.Fatal("f64 kind wrong")
	}
	v := Vec(F32, 4)
	if !v.IsVector() || v.Scalar() != F32T {
		t.Fatal("vector type wrong")
	}
	if v.String() != "<4 x f32>" {
		t.Fatalf("vector string = %s", v.String())
	}
	if I16T.Kind.Bits() != 16 {
		t.Fatal("bits wrong")
	}
}

func TestConstHelpers(t *testing.T) {
	c := ConstInt(I8T, 300) // wraps to 44
	if c.I != 44 {
		t.Fatalf("i8 300 -> %d", c.I)
	}
	if !ConstInt(I64T, 0).IsZero() || !ConstFloat(F64T, 1).IsOne() {
		t.Fatal("zero/one detection wrong")
	}
	if ConstBool(true).I != 1 {
		t.Fatal("bool const wrong")
	}
}

func TestPredHelpers(t *testing.T) {
	if CmpSLT.Inverse() != CmpSGE || CmpSLT.Swapped() != CmpSGT {
		t.Fatal("pred helpers wrong")
	}
	if CmpEQ.Swapped() != CmpEQ {
		t.Fatal("eq swap wrong")
	}
}

func TestOpClassification(t *testing.T) {
	if !OpAdd.IsBinary() || !OpAdd.IsCommutative() || !OpAdd.IsAssociative() {
		t.Fatal("add classification wrong")
	}
	if OpSub.IsCommutative() {
		t.Fatal("sub should not be commutative")
	}
	if !OpStore.HasSideEffects() || OpAdd.HasSideEffects() {
		t.Fatal("side effect classification wrong")
	}
	if !OpSExt.IsCast() || OpAdd.IsCast() {
		t.Fatal("cast classification wrong")
	}
	if !OpBr.IsTerminator() || OpPhi.IsTerminator() {
		t.Fatal("terminator classification wrong")
	}
}

// A pass that moves blocks, lets something re-index the function and then
// asks the old CFG about a moved block would read "not in this CFG". Race
// builds turn that silent wrong answer into a panic.
func TestStaleCFGQueryPanicsUnderRace(t *testing.T) {
	_, f := buildCountdown()
	c := BuildCFG(f)
	header := f.Blocks[1]
	nb := &Block{Name: "late"}
	AttachBlock(nb, f)
	nb.Append(&Instr{Op: OpJmp, Ty: VoidT, Blocks: []*Block{header}})
	f.Blocks = append([]*Block{f.Blocks[0], nb}, f.Blocks[1:]...)
	if got := len(c.Preds(header)); got != 2 {
		t.Fatalf("before the re-index the CFG answers for its own blocks: %d preds, want 2", got)
	}
	BuildCFG(f) // re-indexes: header moves from 1 to 2
	defer func() {
		r := recover()
		if raceEnabled && r == nil {
			t.Fatal("query about a moved block on a stale CFG did not panic in a race build")
		}
		if !raceEnabled && r != nil {
			t.Fatalf("panicked outside a race build: %v", r)
		}
	}()
	if got := c.Preds(header); !raceEnabled && got != nil {
		t.Fatalf("stale CFG still resolved a moved block: %v", got)
	}
}
