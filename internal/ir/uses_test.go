package ir

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// usesTestFunc builds a two-parameter function from a seed: arithmetic over
// the parameters and a global, a diamond joined by a phi, and a self-loop
// whose phi uses itself through the back edge.
func usesTestFunc(seed int64) *Function {
	rng := rand.New(rand.NewSource(seed))
	m := &Module{Name: "u"}
	bd := NewBuilder(m)
	g := bd.AddGlobal("g", I64T, 8)
	f := bd.NewFunction("k", I64T, I64T, I64T)
	vals := []Value{f.Params[0], f.Params[1], ConstInt(I64T, 7),
		bd.Load(I64T, bd.GEP(g, ConstInt(I64T, rng.Int63n(8))))}
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor}
	grow := func(n int) {
		for i := 0; i < n; i++ {
			a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			vals = append(vals, bd.Bin(ops[rng.Intn(len(ops))], a, b))
		}
	}
	grow(2 + rng.Intn(10))
	last := func() Value { return vals[len(vals)-1] }
	c := bd.ICmp(CmpSGT, last(), ConstInt(I64T, 10))
	tb, fb, loop, exit := bd.NewBlock("t"), bd.NewBlock("f"), bd.NewBlock("loop"), bd.NewBlock("exit")
	bd.Br(c, tb, fb)
	bd.SetBlock(tb)
	tv := bd.Bin(OpAdd, last(), f.Params[0])
	bd.Jmp(loop)
	bd.SetBlock(fb)
	fv := bd.Bin(OpSub, last(), last())
	bd.Jmp(loop)
	bd.SetBlock(loop)
	phi := bd.Phi(I64T)
	next := bd.Bin(OpAdd, phi, ConstInt(I64T, 1))
	AddIncoming(phi, tv, tb)
	AddIncoming(phi, fv, fb)
	AddIncoming(phi, next, loop)
	vals = append(vals, phi, next)
	grow(rng.Intn(4))
	lc := bd.ICmp(CmpSLT, next, f.Params[1])
	bd.Br(lc, loop, exit)
	bd.SetBlock(exit)
	bd.Ret(last())
	return f
}

// scanOf is the reference the index is held to: the uses of v in scan order.
func scanOf(f *Function, v Value) []Use {
	var out []Use
	scanUses(f, v, func(in *Instr, slot int) bool {
		out = append(out, Use{in, slot})
		return true
	})
	return out
}

// checkAgainstScan compares Count and Has of every value in vals with the
// scan helpers and, when ordered, Of element by element.
func checkAgainstScan(t testing.TB, f *Function, u *Uses, vals []Value, ordered bool) {
	t.Helper()
	if err := u.Check(f); err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if got, want := u.Count(v), CountUses(f, v); got != want {
			t.Fatalf("Count(%s) = %d, scan finds %d", v.valueName(), got, want)
		}
		if got, want := u.Has(v), HasUses(f, v); got != want {
			t.Fatalf("Has(%s) = %v, scan says %v", v.valueName(), got, want)
		}
		if ordered {
			if got, want := u.Of(v), scanOf(f, v); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("Of(%s) = %v, scan order is %v", v.valueName(), got, want)
			}
		}
	}
}

func indexedValues(f *Function) []Value {
	var vals []Value
	for _, p := range f.Params {
		vals = append(vals, p)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			vals = append(vals, in)
		}
	}
	return vals
}

func TestInstrSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 176 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want 176: ApproxBytes, and with it snapshot eviction, scales with it; uid sits in the tail padding after parent", got)
	}
}

func TestComputeUsesMatchesScanInOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		f := usesTestFunc(seed)
		u := ComputeUses(f)
		checkAgainstScan(t, f, u, indexedValues(f), true)
		u.Release()
	}
}

// A value that is used but no longer in the function keeps its users, and an
// instruction outside f.Blocks uses nothing — both exactly as a scan sees it.
func TestUsesSeesOnlyTheFunction(t *testing.T) {
	f := usesTestFunc(3)
	b := f.Blocks[0]
	var def *Instr
	for _, in := range b.Instrs {
		if in.Op.IsBinary() && CountUses(f, in) > 0 {
			def = in
			break
		}
	}
	if def == nil {
		t.Fatal("no used binary instruction in the entry block")
	}
	b.RemoveAt(b.IndexOf(def))
	u := ComputeUses(f)
	defer u.Release()
	if got, want := u.Count(def), CountUses(f, def); got != want || got == 0 {
		t.Fatalf("detached def: Count = %d, scan finds %d", got, want)
	}
	for _, op := range def.Ops {
		if _, isInstr := op.(*Instr); !isInstr {
			continue
		}
		for _, x := range u.Of(op) {
			if x.User == def {
				t.Fatalf("detached instruction still counted as a user of %s", op.valueName())
			}
		}
	}
	stranger := &Instr{Op: OpAdd, Ty: I64T}
	if u.Has(stranger) {
		t.Fatal("an instruction the function never mentions has uses")
	}
}

func TestUsesRejectsUnindexedKinds(t *testing.T) {
	f := usesTestFunc(1)
	u := ComputeUses(f)
	defer u.Release()
	for _, v := range []Value{ConstInt(I64T, 1), &Global{Name: "x"}, &Param{Name: "other", Ty: I64T}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Of(%T) did not panic", v)
				}
			}()
			u.Of(v)
		}()
	}
}

func TestComputeUsesPanicsOnSharedBody(t *testing.T) {
	f := usesTestFunc(1)
	m := &Module{Name: "u", Funcs: []*Function{f}}
	_ = m.Clone()
	if !f.Shared() {
		t.Fatal("Clone did not share the body")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ComputeUses on a COW-shared body did not panic")
		}
	}()
	ComputeUses(f)
}

func TestComputeUsesWarmPoolDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds objects under the race detector")
	}
	f := usesTestFunc(11)
	ComputeUses(f).Release() // size the pooled tables
	if n := testing.AllocsPerRun(200, func() { ComputeUses(f).Release() }); n != 0 {
		t.Fatalf("build + release on a warm pool: %v allocs/run, want 0", n)
	}
}

// usesScript interprets script as a sequence of index-maintained mutations of
// usesTestFunc(seed), holding the index to the scan oracle after each one.
func usesScript(t testing.TB, seed int64, script []byte) {
	f := usesTestFunc(seed)
	u := ComputeUses(f)
	defer u.Release()
	vals := indexedValues(f) // every value ever in the function, detached ones included
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	pickValue := func() Value {
		if k := next(); k%5 == 0 {
			return ConstInt(I64T, int64(k))
		}
		return vals[next()%len(vals)]
	}
	// pickInstr returns an instruction currently in the function.
	pickInstr := func(ok func(*Instr) bool) *Instr {
		var cands []*Instr
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if ok(in) {
					cands = append(cands, in)
				}
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[next()%len(cands)]
	}
	for len(script) > 0 {
		switch next() % 4 {
		case 0:
			old := vals[next()%len(vals)]
			new := pickValue()
			want := CountUses(f, old)
			if got := u.ReplaceAll(old, new); got != want {
				t.Fatalf("ReplaceAll returned %d, scan counted %d", got, want)
			}
		case 1:
			if user := pickInstr(func(in *Instr) bool { return len(in.Ops) > 0 }); user != nil {
				u.Set(user, next()%len(user.Ops), pickValue())
			}
		case 2:
			in := &Instr{Op: OpAdd, Ty: I64T, Ops: []Value{pickValue(), pickValue()}}
			b := f.Blocks[next()%len(f.Blocks)]
			b.InsertBefore(next()%len(b.Instrs), in)
			u.Insert(in)
			vals = append(vals, in)
		case 3:
			if in := pickInstr(func(in *Instr) bool { return !in.IsTerminator() }); in != nil {
				b := in.Parent()
				b.RemoveAt(b.IndexOf(in))
				u.Remove(in)
			}
		}
		checkAgainstScan(t, f, u, vals, false)
	}
}

func FuzzUsesMaintenance(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 1, 2, 2, 4, 9, 1, 0, 3, 7})
	f.Add(int64(2), []byte{2, 1, 1, 6, 6, 0, 0, 0, 12, 5, 3, 3, 3, 2, 3, 9, 1, 2, 2})
	f.Add(int64(7), []byte{1, 4, 0, 5, 8, 1, 9, 1, 3, 3, 0, 9, 6, 2, 2, 1, 8, 8, 3, 1, 4})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		usesScript(t, seed, script)
	})
}

// TestUsesMaintenanceRandomScripts runs the fuzz body over generated scripts,
// so plain `go test` covers the maintenance operations too.
func TestUsesMaintenanceRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		script := make([]byte, 8+rng.Intn(120))
		rng.Read(script)
		usesScript(t, int64(i), script)
	}
}
