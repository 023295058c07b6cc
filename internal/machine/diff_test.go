package machine_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
)

// valEqualBits compares two Vals bit-for-bit (floats by their IEEE bits, so
// NaN payloads and signed zeros count).
func valEqualBits(a, b machine.Val) bool {
	if a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) {
		return false
	}
	if len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if !valEqualBits(a.Vec[i], b.Vec[i]) {
			return false
		}
	}
	return true
}

// requireIdentical asserts the two engine results are bit-identical across
// every Result field the measurement layer consumes.
func requireIdentical(t *testing.T, tag string, bc, tw *machine.Result, bcErr, twErr error) {
	t.Helper()
	if (bcErr == nil) != (twErr == nil) {
		t.Fatalf("%s: error mismatch: bytecode=%v treewalk=%v", tag, bcErr, twErr)
	}
	if bcErr != nil {
		if bcErr.Error() != twErr.Error() {
			t.Fatalf("%s: error text mismatch:\n  bytecode: %v\n  treewalk: %v", tag, bcErr, twErr)
		}
		return
	}
	if bc.Steps != tw.Steps {
		t.Fatalf("%s: steps mismatch: bytecode=%d treewalk=%d", tag, bc.Steps, tw.Steps)
	}
	if math.Float64bits(bc.Cycles) != math.Float64bits(tw.Cycles) {
		t.Fatalf("%s: cycles mismatch: bytecode=%v treewalk=%v", tag, bc.Cycles, tw.Cycles)
	}
	if !valEqualBits(bc.Ret, tw.Ret) {
		t.Fatalf("%s: return value mismatch: bytecode=%+v treewalk=%+v", tag, bc.Ret, tw.Ret)
	}
	if len(bc.Output) != len(tw.Output) {
		t.Fatalf("%s: output length mismatch: bytecode=%d treewalk=%d", tag, len(bc.Output), len(tw.Output))
	}
	for i := range bc.Output {
		a, b := bc.Output[i], tw.Output[i]
		if a.IsFloat != b.IsFloat || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) {
			t.Fatalf("%s: output[%d] mismatch: bytecode=%+v treewalk=%+v", tag, i, a, b)
		}
	}
	if len(bc.FuncCycles) != len(tw.FuncCycles) {
		t.Fatalf("%s: FuncCycles size mismatch: bytecode=%v treewalk=%v", tag, bc.FuncCycles, tw.FuncCycles)
	}
	for fn, c := range tw.FuncCycles {
		bcC, ok := bc.FuncCycles[fn]
		if !ok {
			t.Fatalf("%s: FuncCycles missing %q in bytecode result", tag, fn)
		}
		if math.Float64bits(bcC) != math.Float64bits(c) {
			t.Fatalf("%s: FuncCycles[%q] mismatch: bytecode=%v treewalk=%v", tag, fn, bcC, c)
		}
	}
}

// TestDifferentialBytecodeVsTree fuzzes the bytecode engine against the
// tree-walking oracle: benchmark programs under random pass sequences must
// produce bit-identical Results (Output, Cycles, Steps, Ret, FuncCycles) and
// identical errors from both engines.
func TestDifferentialBytecodeVsTree(t *testing.T) {
	benches := []string{
		"telecom_gsm", "automotive_susan", "automotive_bitcount",
		"security_sha", "office_stringsearch",
	}
	names := passes.Names()
	rng := rand.New(rand.NewSource(20260808))
	cases := 300
	if testing.Short() {
		cases = 60
	}

	prof := machine.CortexA57()
	bcM := machine.New(prof)
	twM := machine.New(prof)
	twM.TreeWalk = true

	type source struct {
		name string
		mods []*ir.Module
	}
	srcs := make([]source, 0, len(benches))
	for _, bn := range benches {
		b := bench.ByName(bn)
		if b == nil {
			t.Fatalf("unknown benchmark %q", bn)
		}
		srcs = append(srcs, source{bn, b.Build(0, 2)})
	}

	for it := 0; it < cases; it++ {
		s := srcs[it%len(srcs)]
		seq := make([]string, rng.Intn(12))
		for i := range seq {
			seq[i] = names[rng.Intn(len(names))]
		}
		mods := make([]*ir.Module, len(s.mods))
		for i, m := range s.mods {
			c := m.Clone()
			if err := passes.Apply(c, seq, passes.Stats{}, false); err != nil {
				t.Fatalf("case %d (%s seq=%v): apply: %v", it, s.name, seq, err)
			}
			mods[i] = c
		}
		img, err := machine.Link(mods...)
		if err != nil {
			t.Fatalf("case %d (%s seq=%v): link: %v", it, s.name, seq, err)
		}
		bcRes, bcErr := bcM.Run(img, "main")
		twRes, twErr := twM.Run(img, "main")
		requireIdentical(t, s.name, bcRes, twRes, bcErr, twErr)
		machine.ReleaseResult(bcRes)
		machine.ReleaseResult(twRes)
	}

	// The comparison is only meaningful if the fast path actually ran:
	// lowering must have succeeded for these programs.
	st := bcM.BcCounters()
	if st.LoweredFuncs == 0 || st.CodeMisses == 0 {
		t.Fatalf("bytecode engine never engaged: %+v", st)
	}
}

// buildLinkProbe builds a tiny two-block program for Link snapshot tests.
func buildLinkProbe() *ir.Module {
	m := &ir.Module{Name: "probe"}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("data", ir.I64T, 4)
	g.InitI = []int64{3, 1, 4, 1}
	bd.NewFunction("main", ir.VoidT)
	a := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 2)))
	bd.Call("sim.out.i64", ir.VoidT, a)
	bd.Ret(nil)
	ir.CompactModule(m)
	return m
}

// TestLinkLeavesSnapshotIntact is the regression test for the COW-safety fix:
// linking a cache-handed-out Clone() snapshot must leave the snapshot (and
// the module it shares bodies with) byte-identical — Link asserts density
// instead of renumbering shared bodies.
func TestLinkLeavesSnapshotIntact(t *testing.T) {
	orig := buildLinkProbe()
	snap := orig.Clone()
	beforeSnap, beforeOrig := snap.String(), orig.String()
	fpSnap, fpOrig := snap.Fingerprint(), orig.Fingerprint()

	img, err := machine.Link(snap)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res, err := machine.New(machine.CortexA57()).Run(img, "main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Output) != 1 || res.Output[0].I != 4 {
		t.Fatalf("unexpected output %+v", res.Output)
	}
	if got := snap.String(); got != beforeSnap {
		t.Fatalf("Link mutated the snapshot:\nbefore:\n%s\nafter:\n%s", beforeSnap, got)
	}
	if got := orig.String(); got != beforeOrig {
		t.Fatalf("Link mutated the original through shared bodies:\nbefore:\n%s\nafter:\n%s", beforeOrig, got)
	}
	if snap.Fingerprint() != fpSnap || orig.Fingerprint() != fpOrig {
		t.Fatalf("Link changed module fingerprints")
	}
}

// TestLinkRejectsSharedNonDense: a COW-shared module whose instruction IDs
// are not dense cannot be silently renumbered (that would mutate every other
// holder of the snapshot), so Link must refuse it.
func TestLinkRejectsSharedNonDense(t *testing.T) {
	orig := buildLinkProbe()
	snap := orig.Clone() // bodies now shared between orig and snap
	// Simulate the bug: punch a hole in the ID space on the shared body.
	snap.Funcs[0].Blocks[0].Instrs[0].ID = 1 << 20
	if _, err := machine.Link(snap); err == nil {
		t.Fatalf("Link accepted a shared module with non-dense IDs")
	}
}
