package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randModule builds a small random-but-valid module from a seed: a chain of
// arithmetic over two globals with an optional diamond.
func randModule(seed int64) *Module {
	rng := rand.New(rand.NewSource(seed))
	m := &Module{Name: "q"}
	bd := NewBuilder(m)
	g := bd.AddGlobal("g", I64T, 8)
	g.InitI = make([]int64, 8)
	for i := range g.InitI {
		g.InitI[i] = rng.Int63n(100)
	}
	bd.NewFunction("main", VoidT)
	var vals []Value
	vals = append(vals, ConstInt(I64T, rng.Int63n(50)))
	v := bd.Load(I64T, bd.GEP(g, ConstInt(I64T, rng.Int63n(8))))
	vals = append(vals, v)
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl}
	n := 3 + rng.Intn(12)
	for i := 0; i < n; i++ {
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		in := bd.Bin(ops[rng.Intn(len(ops))], a, b)
		vals = append(vals, in)
	}
	if rng.Intn(2) == 0 {
		// Diamond.
		c := bd.ICmp(CmpSGT, vals[len(vals)-1], ConstInt(I64T, 10))
		tb := bd.NewBlock("t")
		fb := bd.NewBlock("f")
		j := bd.NewBlock("j")
		bd.Br(c, tb, fb)
		bd.SetBlock(tb)
		tv := bd.Bin(OpAdd, vals[len(vals)-1], ConstInt(I64T, 1))
		bd.Jmp(j)
		bd.SetBlock(fb)
		fv := bd.Bin(OpSub, vals[len(vals)-1], ConstInt(I64T, 1))
		bd.Jmp(j)
		bd.SetBlock(j)
		phi := bd.Phi(I64T)
		AddIncoming(phi, tv, tb)
		AddIncoming(phi, fv, fb)
		bd.Call("sim.out.i64", VoidT, phi)
	} else {
		bd.Call("sim.out.i64", VoidT, vals[len(vals)-1])
	}
	bd.Ret(nil)
	return m
}

func TestQuickRandomModulesVerify(t *testing.T) {
	f := func(seed int64) bool {
		return Verify(randModule(seed)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickClonePreservesStructure(t *testing.T) {
	// Property: Clone produces a verifiable module whose textual form is
	// identical, and mutating the clone never changes the original's form.
	f := func(seed int64) bool {
		m := randModule(seed)
		orig := m.String()
		c := m.Clone()
		if Verify(c) != nil {
			return false
		}
		if c.String() != orig {
			return false
		}
		// Mutate the clone heavily. Clones are copy-on-write: materialize
		// first, as the pass manager does before running any pass.
		if !MaterializeModule(c) {
			return false
		}
		cf := c.Func("main")
		for len(cf.Blocks[0].Instrs) > 1 {
			cf.Blocks[0].RemoveAt(0)
		}
		c.Globals = nil
		return m.String() == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDominatorsReflexiveAndEntryTotal(t *testing.T) {
	// Property: entry dominates every reachable block; dominance is
	// reflexive.
	f := func(seed int64) bool {
		m := randModule(seed)
		fn := m.Func("main")
		cfg := BuildCFG(fn)
		dt := BuildDomTree(cfg)
		reach := cfg.Reachable()
		for _, b := range fn.Blocks {
			if !reach.Has(b) {
				continue
			}
			if !dt.Dominates(fn.Entry(), b) || !dt.Dominates(b, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
