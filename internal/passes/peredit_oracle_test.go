package passes_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/numeric"
	"repro/internal/passes"
)

// buildSeq runs seq over a fresh clone of pristine through run, turning a pass
// panic into an error as the compile cache does, and verifies the result.
func buildSeq(pristine *ir.Module, seq []string, run func(m *ir.Module, name string, st passes.Stats)) (m *ir.Module, st passes.Stats, err error) {
	m = pristine.Clone()
	st = passes.Stats{}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("compile panicked: %v", r)
		}
	}()
	for _, name := range seq {
		run(m, name, st)
	}
	return m, st, ir.Verify(m)
}

// sameShape reports how two builds differ — error text, printed module,
// Stats, or any block's instruction count or capacity — or "" when they do
// not.
func sameShape(m1 *ir.Module, s1 passes.Stats, err1 error, m2 *ir.Module, s2 passes.Stats, err2 error) string {
	if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
		return fmt.Sprintf("errors differ: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return ""
	}
	if p1, p2 := m1.String(), m2.String(); p1 != p2 {
		return fmt.Sprintf("modules differ\n--- got ---\n%s\n--- want ---\n%s", p1, p2)
	}
	if j1, j2 := s1.JSON(), s2.JSON(); j1 != j2 {
		return fmt.Sprintf("stats differ: %s vs %s", j1, j2)
	}
	for fi, f := range m1.Funcs {
		for bi, b := range f.Blocks {
			o := m2.Funcs[fi].Blocks[bi]
			if len(b.Instrs) != len(o.Instrs) || cap(b.Instrs) != cap(o.Instrs) {
				return fmt.Sprintf("%s/%s: len/cap %d/%d, per-edit %d/%d", f.Name, b.Name,
					len(b.Instrs), cap(b.Instrs), len(o.Instrs), cap(o.Instrs))
			}
		}
	}
	return ""
}

// oracleJob is one benchmark built for one platform's vector width.
type oracleJob struct {
	b  *bench.Benchmark
	vw int
}

// oracleJobs lists every CBench / SPEC benchmark for the ARM and x86 widths.
func oracleJobs() []oracleJob {
	var jobs []oracleJob
	for _, b := range append(bench.CBench(), bench.SPEC()...) {
		for _, plat := range []bench.Platform{bench.ARM(), bench.X86()} {
			jobs = append(jobs, oracleJob{b, plat.Prof.VecWidth64})
		}
	}
	return jobs
}

// TestPerEditOracle is the differential test of the block edit log: on every
// CBench / SPEC module, for the ARM and x86 vector widths, random 8–120-pass
// sequences and tail mutations of them build to exactly what the passes built
// when every edit shifted the block at once (passes.RunPerEdit): same error
// text, printed module, Stats, and every block's length and capacity. Every
// analysis a pass reuses from a function's slot on either side must equal a
// fresh build (checkReuse).
func TestPerEditOracle(t *testing.T) {
	// Sequences per module and vector width: 17 200 builds over the 43
	// modules, 1 376 at -short.
	perModule := 200
	if testing.Short() {
		perModule = 16
	}
	jobs := oracleJobs()
	vocab := passes.Names()
	mgr := passes.NewManager()
	logged := func(m *ir.Module, name string, st passes.Stats) { mgr.RunOne(m, passes.Lookup(name), st) }
	fails := make([]string, len(jobs))
	counts := make([][2]int, len(jobs)) // builds, failed builds
	fired := make([]passes.Stats, len(jobs))
	stopChecking := checkReuse()
	numeric.ParallelFor(numeric.Workers(0), len(jobs), func(j int) {
		rng := rand.New(rand.NewSource(int64(20261017 + j)))
		fired[j] = passes.Stats{}
		for _, pristine := range jobs[j].b.Build(0, jobs[j].vw) {
			var incumbent []string
			for i := 0; i < perModule; i++ {
				var seq []string
				if incumbent != nil && rng.Intn(2) == 0 {
					seq = append([]string(nil), incumbent...)
					for k := 1 + rng.Intn(3); k > 0; k-- {
						seq[len(seq)-1-rng.Intn(1+len(seq)/4)] = vocab[rng.Intn(len(vocab))]
					}
				} else {
					seq = make([]string, 8+rng.Intn(113))
					for k := range seq {
						seq[k] = vocab[rng.Intn(len(vocab))]
					}
					incumbent = seq
				}
				m1, s1, err1 := buildSeq(pristine, seq, logged)
				m2, s2, err2 := buildSeq(pristine, seq, passes.RunPerEdit)
				if diff := sameShape(m1, s1, err1, m2, s2, err2); diff != "" {
					fails[j] = fmt.Sprintf("%s/%s (vec %d): %s\nseq=%v", jobs[j].b.Name, pristine.Name, jobs[j].vw, diff, seq)
					return
				}
				counts[j][0]++
				if err1 != nil {
					counts[j][1]++
				} else {
					fired[j].Merge(s1)
				}
			}
		}
	})
	reused, err := stopChecking()
	if err != nil {
		t.Fatal(err)
	}
	if reused == 0 {
		t.Fatal("no pass reused an analysis: the reuse check checked nothing")
	}
	var total [2]int
	all := passes.Stats{}
	for j, f := range fails {
		if f != "" {
			t.Fatal(f)
		}
		total[0] += counts[j][0]
		total[1] += counts[j][1]
		all.Merge(fired[j])
	}
	t.Logf("%d builds equal to the per-edit passes (%d failed identically), %d reused analyses equal to fresh builds; stats summed over the good ones: %s", total[0], total[1], reused, all.JSON())
}

// TestCloneOracle holds the passes that copy IR to their versions from before
// they shared one cloner (passes.RunFrozenClone): on every CBench / SPEC
// module, for the ARM and x86 vector widths, random sequences in which every
// other pass copies IR and most others shape loops for it build to the same
// error text, printed module, Stats, and every block's length and capacity.
// Each of the copying loop passes must fire.
func TestCloneOracle(t *testing.T) {
	perModule := 100
	if testing.Short() {
		perModule = 10
	}
	copying := []string{"loop-rotate", "loop-unroll", "loop-unroll-full", "simple-loop-unswitch", "simple-loop-unswitch", "loop-fusion", "callsite-splitting"}
	shaping := []string{"mem2reg", "sroa", "loop-simplify", "lcssa", "licm", "indvars", "instcombine", "simplifycfg", "early-cse", "gvn", "dce"}
	jobs := oracleJobs()
	vocab := passes.Names()
	mgr := passes.NewManager()
	logged := func(m *ir.Module, name string, st passes.Stats) { mgr.RunOne(m, passes.Lookup(name), st) }
	fails := make([]string, len(jobs))
	fired := make([]passes.Stats, len(jobs))
	numeric.ParallelFor(numeric.Workers(0), len(jobs), func(j int) {
		rng := rand.New(rand.NewSource(int64(20261019 + j)))
		fired[j] = passes.Stats{}
		for _, pristine := range jobs[j].b.Build(0, jobs[j].vw) {
			for i := 0; i < perModule; i++ {
				seq := make([]string, 8+rng.Intn(57))
				for k := range seq {
					switch {
					case k%2 == 1:
						seq[k] = copying[rng.Intn(len(copying))]
					case rng.Intn(4) > 0:
						seq[k] = shaping[rng.Intn(len(shaping))]
					default:
						seq[k] = vocab[rng.Intn(len(vocab))]
					}
				}
				m1, s1, err1 := buildSeq(pristine, seq, logged)
				m2, s2, err2 := buildSeq(pristine, seq, passes.RunFrozenClone)
				if diff := sameShape(m1, s1, err1, m2, s2, err2); diff != "" {
					fails[j] = fmt.Sprintf("%s/%s (vec %d): %s\nseq=%v", jobs[j].b.Name, pristine.Name, jobs[j].vw, diff, seq)
					return
				}
				if err1 == nil {
					fired[j].Merge(s1)
				}
			}
		}
	})
	all := passes.Stats{}
	for j, f := range fails {
		if f != "" {
			t.Fatal(f)
		}
		all.Merge(fired[j])
	}
	for _, key := range []string{"loop-rotate.NumRotated", "loop-unroll.NumCompletelyUnrolled", "loop-unroll.NumUnrolled",
		"loop-unroll-full.NumCompletelyUnrolled", "simple-loop-unswitch.NumUnswitched", "loop-fusion.NumFused"} {
		if all[key] == 0 {
			t.Errorf("%s never fired", key)
		}
		t.Logf("%s: %d", key, all[key])
	}
	// Its shape (phi, void call, jmp) is rare here: 2 splits at full size,
	// usually none at -short. TestCallsiteSplitting builds one.
	t.Logf("callsite-splitting.NumSplit: %d", all["callsite-splitting.NumSplit"])
}

// TestRemovedInstructionsAreUnlinked: every instruction adce and mem2reg take
// out of a function has no parent any more, on every CBench / SPEC module
// after a random prefix.
func TestRemovedInstructionsAreUnlinked(t *testing.T) {
	vocab := passes.Names()
	rng := rand.New(rand.NewSource(20261018))
	mgr := passes.NewManager()
	checked := map[string]int{}
	for _, b := range append(bench.CBench(), bench.SPEC()...) {
		for _, pristine := range b.Build(0, 2) {
			for _, pass := range []string{"adce", "mem2reg"} {
				for it := 0; it < 4; it++ {
					m := pristine.Clone()
					prefix := make([]string, rng.Intn(12))
					for k := range prefix {
						prefix[k] = vocab[rng.Intn(len(vocab))]
					}
					if it == 0 {
						prefix = nil // mem2reg removes most on the pristine module
					}
					if passes.RunRecovered(mgr, m, prefix) != nil {
						continue
					}
					ir.MaterializeModule(m)
					before := map[*ir.Instr]bool{}
					for _, f := range m.Funcs {
						for _, blk := range f.Blocks {
							for _, in := range blk.Instrs {
								before[in] = true
							}
						}
					}
					if passes.RunRecovered(mgr, m, []string{pass}) != nil {
						continue
					}
					for _, f := range m.Funcs {
						for _, blk := range f.Blocks {
							for _, in := range blk.Instrs {
								delete(before, in)
							}
						}
					}
					for in := range before {
						if in.Parent() != nil {
							t.Fatalf("%s/%s: %s removed a %s but left its parent %s", b.Name, pristine.Name, pass, in.Op, in.Parent().Name)
						}
						checked[pass]++
					}
				}
			}
		}
	}
	if checked["adce"] == 0 || checked["mem2reg"] == 0 {
		t.Fatalf("nothing removed: %v", checked)
	}
	t.Logf("removed instructions checked: %v", checked)
}
