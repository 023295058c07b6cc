package passes

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ir"
)

// sameAsPerEdit builds two copies of a module, runs the pass on one and its
// per-edit version (peredit_test.go) on the other, and fails unless printed
// modules, results and every block's length and capacity agree. It returns
// the result.
func sameAsPerEdit(t *testing.T, build func() *ir.Module, run, perEdit func(m *ir.Module) string) string {
	t.Helper()
	m1, m2 := build(), build()
	r1, r2 := run(m1), perEdit(m2)
	if r1 != r2 {
		t.Fatalf("result %s, per-edit %s", r1, r2)
	}
	if p1, p2 := m1.String(), m2.String(); p1 != p2 {
		t.Fatalf("modules differ\n--- got ---\n%s\n--- per-edit ---\n%s", p1, p2)
	}
	for fi, f := range m1.Funcs {
		for bi, b := range f.Blocks {
			o := m2.Funcs[fi].Blocks[bi]
			if len(b.Instrs) != len(o.Instrs) || cap(b.Instrs) != cap(o.Instrs) {
				t.Fatalf("%s/%s: len/cap %d/%d, per-edit %d/%d", f.Name, b.Name, len(b.Instrs), cap(b.Instrs), len(o.Instrs), cap(o.Instrs))
			}
		}
	}
	return r1
}

// A root replaced outright leaves its entry until the rebuild of a later root
// flushes the block; the scan must go on from where a per-edit scan would
// have, which here skips r3 (two removed, one inserted before it) and visits
// r4.
func TestReassociateScanAfterDeferredRemoval(t *testing.T) {
	build := func() *ir.Module {
		m := &ir.Module{Name: "m"}
		bd := ir.NewBuilder(m)
		f := bd.NewFunction("f", ir.I64T, ir.I64T, ir.I64T, ir.I64T, ir.I64T, ir.I64T)
		a := f.Params
		c := func(v int64) ir.Value { return ir.ConstInt(ir.I64T, v) }
		t1 := bd.Bin(ir.OpAdd, a[0], c(0))
		r1 := bd.Bin(ir.OpAdd, t1, c(0)) // folds to a0: replaced
		u1 := bd.Bin(ir.OpAdd, a[3], c(1))
		v1 := bd.Bin(ir.OpAdd, a[4], c(3))
		t2 := bd.Bin(ir.OpAdd, a[1], a[2])
		t3 := bd.Bin(ir.OpAdd, t2, c(5))
		r2 := bd.Bin(ir.OpAdd, t3, c(7)) // rebuilt: one in, two out
		r3 := bd.Bin(ir.OpAdd, u1, c(2))
		r4 := bd.Bin(ir.OpAdd, v1, c(4))
		s := bd.Bin(ir.OpSub, r1, r2)
		s = bd.Bin(ir.OpSub, s, r3)
		bd.Ret(bd.Bin(ir.OpSub, s, r4))
		return m
	}
	got := sameAsPerEdit(t, build,
		func(m *ir.Module) string { return fmt.Sprint(reassociate(m.Funcs[0])) },
		func(m *ir.Module) string { return fmt.Sprint(reassociatePerEdit(m.Funcs[0])) })
	if got != "3" {
		t.Fatalf("reassociated %s roots, want r1, r2 and r4", got)
	}
}

// Widening logs its sexts before the narrow binop: the scan revisits the
// sext when two went in, and settles the block when the binop comes after
// its user.
func TestWidenExtChainScan(t *testing.T) {
	for _, order := range []string{"def-first", "use-first"} {
		build := func() *ir.Module {
			m := &ir.Module{Name: "m"}
			bd := ir.NewBuilder(m)
			f := bd.NewFunction("f", ir.I64T, ir.I32T, ir.I32T)
			x := bd.Bin(ir.OpMul, f.Params[0], f.Params[1])
			x.Flags |= ir.FlagNoWrap
			y := bd.Bin(ir.OpAdd, f.Params[0], ir.ConstInt(ir.I32T, 3))
			y.Flags |= ir.FlagNoWrap
			sx := bd.Cast(ir.OpSExt, x, ir.I64T)
			sy := bd.Cast(ir.OpSExt, y, ir.I64T)
			bd.Ret(bd.Bin(ir.OpAdd, sx, sy))
			if order == "use-first" { // invalid IR: the binops after their sexts
				b := f.Blocks[0]
				b.Instrs[0], b.Instrs[1], b.Instrs[2], b.Instrs[3] = sx, sy, x, y
			}
			return m
		}
		cfg := combineConfig{fold: true, strength: true, widen: true, constReass: true, maxRounds: 8}
		got := sameAsPerEdit(t, build,
			func(m *ir.Module) string { return fmt.Sprint(runCombine(m, m.Funcs[0], cfg)) },
			func(m *ir.Module) string { return fmt.Sprint(runCombinePerEdit(m, m.Funcs[0], cfg)) })
		if got == "0" {
			t.Fatalf("%s: nothing widened", order)
		}
	}
}

// CSE keys: pure calls to different callees never match; constants match by
// value with float ==, so +0 and -0 are one value and a NaN matches nothing;
// a load's address is the very operand, so equal constant addresses in two
// objects are two addresses.
func TestCSEKeys(t *testing.T) {
	build := func() *ir.Module {
		m := &ir.Module{Name: "m"}
		bd := ir.NewBuilder(m)
		for _, name := range []string{"g1", "g2"} {
			g := bd.NewFunction(name, ir.I64T, ir.I64T)
			g.Attrs |= ir.AttrReadNone
			bd.Ret(g.Params[0])
		}
		f := bd.NewFunction("f", ir.F64T, ir.I64T, ir.F64T)
		c1 := bd.Call("g1", ir.I64T, f.Params[0])
		c2 := bd.Call("g2", ir.I64T, f.Params[0])
		c3 := bd.Call("g1", ir.I64T, f.Params[0]) // = c1
		d := bd.Bin(ir.OpSub, bd.Bin(ir.OpSub, c1, c2), c3)
		x := f.Params[1]
		p := bd.Bin(ir.OpFAdd, x, ir.ConstFloat(ir.F64T, 0))
		n := bd.Bin(ir.OpFAdd, x, ir.ConstFloat(ir.F64T, math.Copysign(0, -1))) // = p
		q1 := bd.Bin(ir.OpFAdd, x, ir.ConstFloat(ir.F64T, math.NaN()))
		q2 := bd.Bin(ir.OpFAdd, x, ir.ConstFloat(ir.F64T, math.NaN())) // != q1
		s := bd.Bin(ir.OpFAdd, bd.Bin(ir.OpFAdd, p, n), bd.Bin(ir.OpFAdd, q1, q2))
		addr := ir.ConstInt(ir.PtrT, 8)
		l1 := bd.Load(ir.I64T, addr)
		l2 := bd.Load(ir.I64T, ir.ConstInt(ir.PtrT, 8)) // another object: kept
		l3 := bd.Load(ir.I64T, addr)                    // = l1
		d = bd.Bin(ir.OpSub, d, bd.Bin(ir.OpSub, bd.Bin(ir.OpSub, l1, l2), l3))
		bd.Ret(bd.Bin(ir.OpFAdd, s, bd.Cast(ir.OpSIToFP, d, ir.F64T)))
		return m
	}
	got := sameAsPerEdit(t, build,
		func(m *ir.Module) string {
			ni, nl := runCSE(m, m.Funcs[2], cseConfig{global: true, loads: true, calls: true})
			return fmt.Sprint(ni, nl)
		},
		func(m *ir.Module) string {
			ni, nl := runCSEPerEdit(m, m.Funcs[2], cseConfig{global: true, loads: true, calls: true})
			return fmt.Sprint(ni, nl)
		})
	if got != "2 1" {
		t.Fatalf("CSE'd %s, want the repeated g1 call, the -0 add and the load through the same address object", got)
	}
}

// ADCE follows an operand that is no instruction of the function (invalid IR
// a pass left behind) like any other: what it uses stays live.
func TestADCEFollowsForeignOperands(t *testing.T) {
	build := func() *ir.Module {
		m := &ir.Module{Name: "m"}
		bd := ir.NewBuilder(m)
		f := bd.NewFunction("f", ir.I64T, ir.I64T)
		x := bd.Bin(ir.OpAdd, f.Params[0], ir.ConstInt(ir.I64T, 1))
		bd.Ret(&ir.Instr{Op: ir.OpAdd, Ty: ir.I64T, Ops: []ir.Value{x, ir.ConstInt(ir.I64T, 2)}})
		return m
	}
	got := sameAsPerEdit(t, build,
		func(m *ir.Module) string { return fmt.Sprint(aggressiveDCE(m, m.Funcs[0])) },
		func(m *ir.Module) string { return fmt.Sprint(aggressiveDCEPerEdit(m, m.Funcs[0])) })
	if got != "0" {
		t.Fatalf("removed %s, want nothing", got)
	}
}
