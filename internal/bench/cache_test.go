package bench

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/passes"
)

// raceBuild is set by race_test.go in -race builds, where the differential
// test runs at its -short size.
var raceBuild bool

// mutateSeq returns a copy of seq with 1-3 tail-biased point mutations — the
// shape of BO/GA candidate generation, where most of a candidate is its
// incumbent's prefix.
func mutateSeq(rng *rand.Rand, seq, vocab []string) []string {
	out := append([]string(nil), seq...)
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		// Bias mutation points toward the tail: prefixes stay shared.
		pos := len(out) - 1 - rng.Intn(1+len(out)/4)
		out[pos] = vocab[rng.Intn(len(vocab))]
	}
	return out
}

// TestCompileModuleSingleflight is the regression test for the duplicate-
// compile race: N goroutines requesting the same uncached build must run the
// pipeline exactly once, with the other N-1 sharing the leader's result.
func TestCompileModuleSingleflight(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 11)
	if err != nil {
		t.Fatal(err)
	}
	seq := append(passes.O3Sequence()[:12], "dce")
	const workers = 8
	mods := make([]*ir.Module, workers)
	stats := make([]passes.Stats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mods[i], stats[i], errs[i] = ev.CompileModule("long_term", seq)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if ev.Compilations != 1 {
		t.Fatalf("Compilations = %d, want 1 (singleflight must deduplicate concurrent identical builds)", ev.Compilations)
	}
	hits, misses := ev.CacheCounters()
	if misses != 1 || hits != workers-1 {
		t.Fatalf("hits=%d misses=%d, want hits=%d misses=1", hits, misses, workers-1)
	}
	mods[0].Renumber()
	ref, refSt := mods[0].String(), stats[0].JSON()
	for i := 1; i < workers; i++ {
		mods[i].Renumber()
		if got := mods[i].String(); got != ref {
			t.Fatalf("worker %d module diverges from leader", i)
		}
		if got := stats[i].JSON(); got != refSt {
			t.Fatalf("worker %d stats diverge: %s vs %s", i, got, refSt)
		}
	}
}

// cloneScheduleBuild is the oracle of Evaluator.build: a from-pristine build
// under the schedule the prefix-snapshot cache ran before builds stopped
// resuming. After every sixth pass short of the last, that cache compared the
// working module with the snapshot it kept at the previous boundary: when the
// statistics total had not moved and the two were the same code (the
// comparison answered what comparing fingerprints answers, and renumbered the
// working module on the way), it kept the old snapshot; otherwise it cloned
// the working module, and the next pass re-slabbed it. Clone +
// MaterializeModule does both steps here at once.
func cloneScheduleBuild(pristine *ir.Module, names []string) (m *ir.Module, st passes.Stats, err error) {
	defer recoverCompile(&err)
	plist, err := resolveSequence(names)
	if err != nil {
		return nil, nil, err
	}
	mgr := passes.NewManager()
	m, st = pristine.Clone(), passes.Stats{}
	var prev *ir.Module
	prevSum := 0
	for i, p := range plist {
		mgr.RunOne(m, p, st)
		if d := i + 1; d%6 != 0 || d == len(plist) {
			continue
		}
		sum := statsSum(st)
		if prev != nil && sum == prevSum && prev.Fingerprint() == m.Fingerprint() {
			continue
		}
		prev, prevSum = m.Clone(), sum
		ir.MaterializeModule(m)
	}
	if err := ir.Verify(m); err != nil {
		return nil, nil, fmt.Errorf("passes: IR invalid after sequence: %w", err)
	}
	return m, st, nil
}

// sameBuild reports how two builds of one sequence differ — error text,
// printed module, Stats — or "" when they do not.
func sameBuild(m1 *ir.Module, s1 passes.Stats, err1 error, m2 *ir.Module, s2 passes.Stats, err2 error) string {
	if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
		return fmt.Sprintf("errors differ: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return ""
	}
	m1.Renumber()
	m2.Renumber()
	if p1, p2 := m1.String(), m2.String(); p1 != p2 {
		return fmt.Sprintf("modules differ\n--- got ---\n%s\n--- want ---\n%s", p1, p2)
	}
	if j1, j2 := s1.JSON(), s2.JSON(); j1 != j2 {
		return fmt.Sprintf("stats differ: %s vs %s", j1, j2)
	}
	return ""
}

// TestBuildsMatchCloneScheduleOracle is the differential test of the one
// build path: on every CBench / SPEC benchmark, on both platforms and both
// datasets, random 8–120-pass sequences and tail mutations of them compile
// through the evaluator's cache — repeats come back as hits, and one round
// per sequence makes some of them rebuilds after eviction — to exactly what
// the clone schedule builds from pristine: same error text, printed module
// and Stats.
func TestBuildsMatchCloneScheduleOracle(t *testing.T) {
	// Sequences per module and platform, each built on both datasets: 20 160
	// sequences over the 28 modules (40 320 compiles), 896 at -short and
	// under -race.
	perModule := 360
	if testing.Short() || raceBuild {
		perModule = 16
	}
	type job struct {
		b    *Benchmark
		plat Platform
	}
	var jobs []job
	for _, b := range append(CBench(), SPEC()...) {
		for _, plat := range []Platform{ARM(), X86()} {
			jobs = append(jobs, job{b, plat})
		}
	}
	vocab := passes.Names()
	fails := make([]string, len(jobs))
	counts := make([][3]int, len(jobs)) // compiles, failed compiles, hits
	numeric.ParallelFor(numeric.Workers(0), len(jobs), func(j int) {
		b, plat := jobs[j].b, jobs[j].plat
		ev, err := NewEvaluator(b, plat, 5)
		if err != nil {
			fails[j] = err.Error()
			return
		}
		rng := rand.New(rand.NewSource(int64(20261016 + j)))
		for _, name := range ev.Modules() {
			var incumbent []string
			for i := 0; i < perModule; i++ {
				ev.BeginRound()
				var seq []string
				switch r := rng.Intn(8); {
				case incumbent != nil && r == 0:
					seq = incumbent // a hit, or a rebuild once evicted
				case incumbent != nil && r < 4:
					seq = mutateSeq(rng, incumbent, vocab)
				default:
					seq = make([]string, 8+rng.Intn(113))
					for k := range seq {
						seq[k] = vocab[rng.Intn(len(vocab))]
					}
					incumbent = seq
				}
				for ds := 0; ds < numDatasets; ds++ {
					pristine := ev.pristine[ds][0]
					for _, pm := range ev.pristine[ds] {
						if pm.Name == name {
							pristine = pm
						}
					}
					m1, s1, err1 := ev.compiledFor(context.Background(), ds, name, seq)
					m2, s2, err2 := cloneScheduleBuild(pristine, seq)
					if diff := sameBuild(m1, s1, err1, m2, s2, err2); diff != "" {
						fails[j] = fmt.Sprintf("%s/%s/%s ds%d: %s\nseq=%v", b.Name, plat.Name, name, ds, diff, seq)
						return
					}
					counts[j][0]++
					if err1 != nil {
						counts[j][1]++
					}
				}
			}
		}
		counts[j][2], _ = ev.CacheCounters()
	})
	var total [3]int
	for j, f := range fails {
		if f != "" {
			t.Fatal(f)
		}
		for k := range total {
			total[k] += counts[j][k]
		}
	}
	t.Logf("%d compiles equal to the oracle (%d failed identically), %d of them cache hits", total[0], total[1], total[2])
	if total[2] == 0 || (total[1] == 0 && perModule > 16) {
		t.Fatal("the workload exercised no cache hit, or at full size no failing build")
	}
}

// A hit, a miss, a rebuild after eviction and an evaluator that retains
// nothing return the same module and stats, for a build that resets at its
// stride boundaries.
func TestCachePathsAgree(t *testing.T) {
	newEv := func(cacheCap int) *Evaluator {
		ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 3)
		if err != nil {
			t.Fatal(err)
		}
		ev.CacheCap = cacheCap
		return ev
	}
	cached, plain := newEv(0), newEv(-1)
	baseline := len(plain.cache) // the -O3 builds NewEvaluator cached before CacheCap was set
	seq := append(append([]string(nil), passes.O3Sequence()...), "dce", "instcombine")
	render := func(m *ir.Module, st passes.Stats, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		m.Renumber()
		return m.String() + st.JSON()
	}
	want := render(plain.CompileModule("long_term", seq))
	for _, step := range []struct {
		name     string
		ev       *Evaluator
		evictFst bool
		hit      bool
	}{
		{"miss", cached, false, false},
		{"hit", cached, false, true},
		{"rebuild after eviction", cached, true, false},
		{"retain nothing", plain, false, false},
	} {
		if step.evictFst {
			// Past the last round that may still hold the build.
			for r := 0; r <= retainRounds; r++ {
				step.ev.BeginRound()
			}
		}
		hits0, _ := step.ev.CacheCounters()
		if got := render(step.ev.CompileModule("long_term", seq)); got != want {
			t.Fatalf("%s: module or stats differ from a build that retains nothing", step.name)
		}
		if hits, _ := step.ev.CacheCounters(); (hits > hits0) != step.hit {
			t.Fatalf("%s: hits %d -> %d", step.name, hits0, hits)
		}
	}
	if _, _, _, evictions := cached.PrefixCounters(); evictions == 0 {
		t.Fatal("five rounds without a read evicted nothing")
	}
	if hits, _ := plain.CacheCounters(); hits != 0 || len(plain.cache) != baseline {
		t.Fatalf("CacheCap < 0 retained %d entries, hit %d times", len(plain.cache)-baseline, hits)
	}
}

// The work accounting: a build counts one miss, one pipeline run, its passes
// replayed and one COW clone that materializes (its working clone); a hit
// counts one COW clone that does not. Nothing is ever saved by resuming.
func TestCacheCountersPerBuildAndHandout(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 3)
	if err != nil {
		t.Fatal(err)
	}
	seqs := [][]string{passes.O3Sequence()[:20], {"mem2reg", "instcombine", "dce"}}
	for round := 0; round < 3; round++ {
		for _, seq := range seqs {
			if _, _, err := ev.CompileModule("long_term", seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses := ev.CacheCounters()
	saved, replayed, bytes, evictions := ev.PrefixCounters()
	shared, materialized := ev.CowCounters()
	got := fmt.Sprint(hits, misses, ev.Compilations, saved, replayed, evictions, shared, materialized)
	if want := fmt.Sprint(4, 2, 2, 0, 23, 0, 6, 2); got != want {
		t.Fatalf("hits misses pipelines saved replayed evictions cow_shared cow_materialized = %s, want %s", got, want)
	}
	if bytes <= 0 {
		t.Fatalf("cached byte accounting is empty: %d", bytes)
	}
}

// TestCacheRoundBound checks the round rule itself: a build outlives the
// round that last built or read it by exactly retainRounds round starts, a
// read restarts that count, the sweep's evictions and byte accounting add up,
// and a measurement after the sweep equals one by an evaluator that retains
// nothing.
func TestCacheRoundBound(t *testing.T) {
	newEv := func() *Evaluator {
		ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 9)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	ev, plain := newEv(), newEv()
	plain.CacheCap = -1
	a := []string{"mem2reg", "instcombine", "dce"}
	b := []string{"mem2reg", "gvn"}
	key := func(seq []string) buildKey { return buildKey{0, "long_term", seqHash(seq)} }
	cached := func(seq []string) bool {
		ev.mu.Lock()
		defer ev.mu.Unlock()
		_, ok := ev.cache[key(seq)]
		return ok
	}
	for _, seq := range [][]string{a, b} {
		if _, _, err := ev.CompileModule("long_term", seq); err != nil {
			t.Fatal(err)
		}
	}
	for r := 1; r <= retainRounds; r++ {
		ev.BeginRound()
		if !cached(a) || !cached(b) {
			t.Fatalf("a build was dropped %d round starts after its last use", r)
		}
		if r == 2 {
			if _, _, err := ev.CompileModule("long_term", b); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, _, bytesBefore, ev0 := ev.PrefixCounters()
	ev.BeginRound()
	if cached(a) || !cached(b) {
		t.Fatalf("after %d round starts: a cached %v (want false), b read since cached %v (want true)",
			retainRounds+1, cached(a), cached(b))
	}
	_, _, bytesAfter, ev1 := ev.PrefixCounters()
	ev.mu.Lock()
	var held int64
	for _, e := range ev.cache {
		held += e.bytes
	}
	ev.mu.Unlock()
	// The baseline's -O3 builds were last read in a's round, so the same
	// sweep dropped them.
	if ev1 <= ev0 || bytesAfter >= bytesBefore || bytesAfter != held {
		t.Fatalf("evictions %d -> %d, cache bytes %d -> %d, entries hold %d", ev0, ev1, bytesBefore, bytesAfter, held)
	}
	seqs := map[string][]string{"long_term": a}
	for round := 0; round < 2; round++ {
		t1, _, err := ev.Measure(seqs)
		if err != nil {
			t.Fatal(err)
		}
		t2, _, err := plain.Measure(seqs)
		if err != nil {
			t.Fatal(err)
		}
		if t1 != t2 {
			t.Fatalf("round %d: the swept cache changed measured times: %v vs %v", round, t1, t2)
		}
	}
}

// manyModuleBench is the shape the compile cache exists for: one hot kernel
// module and 47 cold units that every measurement links at -O3 (the
// benchmark harness's manymod_bo program).
func manyModuleBench() *Benchmark {
	kinds := []irgen.KernelKind{
		irgen.DotProduct, irgen.FIR, irgen.Stencil, irgen.CRC, irgen.Histogram,
		irgen.MinMaxReduce, irgen.StateMachine, irgen.CompareBlocks, irgen.CopyFill,
		irgen.FloatNorm, irgen.Polynomial, irgen.PrefixSum,
	}
	specs := []irgen.ModuleSpec{
		{Name: "core_kern", Kernels: []irgen.KernelSpec{ks(irgen.DotProduct, 64, 12, 4, ir.CmpSLT)}},
	}
	for i := 0; i < 47; i++ {
		var kern []irgen.KernelSpec
		for j := 0; j < 3; j++ {
			kern = append(kern, ks(kinds[(i*3+j)%len(kinds)], 16, 1, 0, ir.CmpSLT))
		}
		specs = append(specs, irgen.ModuleSpec{Name: fmt.Sprintf("unit%02d", i), Kernels: kern})
	}
	return &Benchmark{Name: "manymod", Suite: "spec", Specs: specs}
}

// TestUnchangedModulesSurviveRounds: tuning one module of 48, every round
// compiles a fan-out of candidates and measures one of them, and the 47
// untouched -O3 builds of each dataset are never rebuilt — a measurement
// moves pipeline_runs by at most numDatasets (the measured module's builds),
// however much the candidates leave in the cache.
func TestUnchangedModulesSurviveRounds(t *testing.T) {
	ev, err := NewEvaluator(manyModuleBench(), ARM(), 1)
	if err != nil {
		t.Fatal(err)
	}
	vocab := passes.Names()
	rng := rand.New(rand.NewSource(20261017))
	incumbent := append([]string(nil), passes.O3Sequence()...)
	for round := 0; round < 12; round++ {
		var measured []string
		for k := 0; k < 16; k++ {
			seq := mutateSeq(rng, incumbent, vocab)
			if _, _, err := ev.CompileModule("core_kern", seq); err == nil && measured == nil {
				measured = seq
			}
		}
		if measured == nil {
			t.Fatalf("round %d: no candidate compiled", round)
		}
		before := ev.Counters().Get("pipeline_runs")
		if _, _, err := ev.Measure(map[string][]string{"core_kern": measured}); err == nil {
			incumbent = measured
		}
		if moved := ev.Counters().Get("pipeline_runs") - before; moved > int64(numDatasets) {
			t.Fatalf("round %d: the measurement ran %d pipelines, at most %d may be the measured module's", round, moved, numDatasets)
		}
	}
}

// BenchmarkPrefixCompile measures the compile cost of a mutated-incumbent
// workload — the dominant workload of a tuning run (§3.3): tail mutations of
// the O3 pipeline, each a cache miss built from pristine.
func BenchmarkPrefixCompile(b *testing.B) {
	ev, err := NewEvaluator(ByName("525.x264_r"), ARM(), 17)
	if err != nil {
		b.Fatal(err)
	}
	vocab := passes.Names()
	rng := rand.New(rand.NewSource(1))
	incumbent := append([]string(nil), passes.O3Sequence()...)
	name := ev.Modules()[0]
	if _, _, err := ev.CompileModule(name, incumbent); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := mutateSeq(rng, incumbent, vocab)
		if _, _, err := ev.CompileModule(name, seq); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, replayed, _, _ := ev.PrefixCounters()
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed-passes/op")
}

// The canonical counter rows are the behaviour contract of a run: they must
// not depend on the worker count, also once the round rule evicts. Rounds run
// the way the tuner runs them: every compile of a batch in parallel, then one
// measurement of a candidate that compiled, which opens the next round.
func TestCanonicalCountersWorkerIndependentUnderEviction(t *testing.T) {
	vocab := passes.Names()
	run := func(workers int) obs.CounterSet {
		ev, err := NewEvaluator(ByName("525.x264_r"), X86(), 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(20260930))
		incumbent := make([]string, 60)
		for i := range incumbent {
			incumbent[i] = vocab[rng.Intn(len(vocab))]
		}
		for round := 0; round < 10; round++ {
			var specs []core.CompileSpec
			for _, mod := range ev.Modules() {
				for k := 0; k < 6; k++ {
					specs = append(specs, core.CompileSpec{Module: mod, Seq: mutateSeq(rng, incumbent, vocab)})
				}
			}
			out := make([]core.CompileOutcome, len(specs))
			if err := core.RunSpecs(context.Background(), workers, ev.Task(), core.FeatStats, specs, out); err != nil {
				t.Fatal(err)
			}
			for i, o := range out {
				if o.Ok {
					// A rejected measurement is rejected the same way at any
					// worker count; its round is opened either way.
					ev.Measure(map[string][]string{specs[i].Module: specs[i].Seq})
					break
				}
			}
		}
		if _, _, _, evictions := ev.PrefixCounters(); evictions == 0 {
			t.Fatal("the round rule never evicted")
		}
		return ev.Counters().Canonical()
	}
	w1, w8 := run(1), run(8)
	if !reflect.DeepEqual(w1, w8) {
		t.Fatalf("canonical counters depend on the worker count:\nw1 %+v\nw8 %+v", w1, w8)
	}
	if w1.Get("cache_misses") == 0 {
		t.Fatalf("no compile was counted: %+v", w1)
	}
}
