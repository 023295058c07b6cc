package bench

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/evalpool"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/passes"
)

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

// TestPrefixResumeMatchesFreshBuilds is the bench-layer differential test:
// compiles resumed from prefix snapshots must be bit-identical (module print
// and stats) to uncached from-pristine builds, across a mutated-incumbent
// workload that exercises resume depths all along the sequence.
func TestPrefixResumeMatchesFreshBuilds(t *testing.T) {
	cached, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 5)
	if err != nil {
		t.Fatal(err)
	}
	plain.CacheCap = -1

	vocab := passes.Names()
	rng := rand.New(rand.NewSource(20260805))
	incumbent := make([]string, 30)
	for i := range incumbent {
		incumbent[i] = vocab[rng.Intn(len(vocab))]
	}
	rounds := 15
	if testing.Short() {
		rounds = 4
	}
	for _, name := range cached.Modules() {
		seq := incumbent
		for r := 0; r < rounds; r++ {
			m1, s1, err := cached.CompileModule(name, seq)
			if err != nil {
				t.Fatalf("%s r=%d cached: %v\nseq=%v", name, r, err, seq)
			}
			m2, s2, err := plain.CompileModule(name, seq)
			if err != nil {
				t.Fatalf("%s r=%d plain: %v\nseq=%v", name, r, err, seq)
			}
			m1.Renumber()
			m2.Renumber()
			if p1, p2 := m1.String(), m2.String(); p1 != p2 {
				t.Fatalf("%s r=%d: resumed build diverges from fresh build\nseq=%v\n--- resumed ---\n%s\n--- fresh ---\n%s",
					name, r, seq, p1, p2)
			}
			if j1, j2 := s1.JSON(), s2.JSON(); j1 != j2 {
				t.Fatalf("%s r=%d: stats diverge\nseq=%v\nresumed=%s\nfresh=%s", name, r, seq, j1, j2)
			}
			seq = mutateSeq(rng, seq, vocab)
		}
	}
	if saved, _, _, _ := cached.PrefixCounters(); saved == 0 {
		t.Fatalf("prefix cache never resumed from a snapshot across a mutated-incumbent workload")
	}
	if saved, _, _, _ := plain.PrefixCounters(); saved != 0 {
		t.Fatalf("disabled cache reported saved passes: %d", saved)
	}
}

// TestPrefixCacheSavesReplay pins the work accounting: tail mutations of a
// long incumbent must resume deep, replaying far fewer passes than they skip.
func TestPrefixCacheSavesReplay(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 3)
	if err != nil {
		t.Fatal(err)
	}
	o3 := passes.O3Sequence()
	for i := 0; i < 8; i++ {
		seq := append([]string(nil), o3...)
		seq[len(seq)-1-i%3] = []string{"dce", "adce", "instcombine"}[i%3]
		if _, _, err := ev.CompileModule("long_term", seq); err != nil {
			t.Fatalf("variant %d: %v\nseq=%v", i, err, seq)
		}
	}
	saved, replayed, bytes, _ := ev.PrefixCounters()
	if saved <= replayed {
		t.Fatalf("tail mutations of a %d-pass incumbent should mostly resume: saved=%d replayed=%d", len(o3), saved, replayed)
	}
	if bytes <= 0 {
		t.Fatalf("snapshot byte accounting is empty: %d", bytes)
	}
}

// TestSnapshotBudgetBound checks the byte budget: with a budget smaller than
// any snapshot, the cache keeps at most one entry, keeps evicting, and still
// returns correct results.
func TestSnapshotBudgetBound(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 9)
	if err != nil {
		t.Fatal(err)
	}
	ev.SnapshotBudget = 1
	free, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 9)
	if err != nil {
		t.Fatal(err)
	}
	seqs := map[string][]string{"long_term": {"mem2reg", "instcombine", "dce"}}
	for round := 0; round < 2; round++ {
		t1, _, err := ev.Measure(seqs)
		if err != nil {
			t.Fatal(err)
		}
		t2, _, err := free.Measure(seqs)
		if err != nil {
			t.Fatal(err)
		}
		// Same seed, same workload: the budget may change only how much is
		// recompiled, never what is measured.
		if t1 != t2 {
			t.Fatalf("round %d: budget-constrained cache changed measured times: %v vs %v", round, t1, t2)
		}
	}
	if ev.lru.Len() > 1 {
		t.Fatalf("budget of 1 byte should keep at most one snapshot, have %d", ev.lru.Len())
	}
	_, _, _, evictions := ev.PrefixCounters()
	if evictions == 0 {
		t.Fatalf("budget-constrained cache never evicted")
	}
}

// BenchmarkPrefixCompile measures the compile cost of a mutated-incumbent
// workload — the dominant workload of a tuning run (§3.3) — with prefix
// snapshots against the exact-full-sequence baseline (SnapshotEvery < 0
// retains only final states, i.e. the old cache). The acceptance bar is ≥2×.
func BenchmarkPrefixCompile(b *testing.B) {
	for _, mode := range []struct {
		name   string
		stride int
	}{
		{"exact-lru", -1},
		{"prefix-snapshots", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ev, err := NewEvaluator(ByName("525.x264_r"), ARM(), 17)
			if err != nil {
				b.Fatal(err)
			}
			ev.SnapshotEvery = mode.stride
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
			saved, replayed, _, _ := ev.PrefixCounters()
			b.ReportMetric(float64(saved)/float64(b.N), "saved-passes/op")
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed-passes/op")
		})
	}
}

// The canonical counter rows are the behaviour contract of a run: they must
// not depend on the worker count even when the snapshot budget is small
// enough that every batch evicts, which is when the order workers touched the
// LRU decides what the next build resumes from. Batches are grouped the way
// the tuner groups them: one serial group per module, the groups in parallel.
func TestCanonicalCountersWorkerIndependentUnderEviction(t *testing.T) {
	vocab := passes.Names()
	run := func(workers int) obs.CounterSet {
		ev, err := NewEvaluator(ByName("525.x264_r"), X86(), 5)
		if err != nil {
			t.Fatal(err)
		}
		ev.SnapshotBudget = 2 << 20
		rng := rand.New(rand.NewSource(20260930))
		incumbent := make([]string, 60)
		for i := range incumbent {
			incumbent[i] = vocab[rng.Intn(len(vocab))]
		}
		for round := 0; round < 10; round++ {
			var specs []core.CompileSpec
			var groups [][]int
			for _, mod := range ev.Modules() {
				var g []int
				for k := 0; k < 6; k++ {
					g = append(g, len(specs))
					specs = append(specs, core.CompileSpec{Module: mod, Seq: mutateSeq(rng, incumbent, vocab)})
				}
				groups = append(groups, g)
			}
			out := make([]core.CompileOutcome, len(specs))
			if err := core.RunGroups(context.Background(), evalpool.New(workers), ev.Task(), core.FeatStats, specs, groups, out); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, evictions := ev.PrefixCounters(); evictions == 0 {
			t.Fatal("the budget never forced an eviction")
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

// TestFinalOnlySnapshotsMatchPristineBuilds compares the two oracle
// configurations with each other on inputs the mutated-incumbent test above
// does not reach: a second platform, sequences of 8 to 120 random passes, and
// sequences that fail. SnapshotEvery < 0 runs the stepwise RunOne path and
// keeps final states only; CacheCap < 0 runs Manager.Run on a pristine clone.
// Neither resumes from an interior snapshot, so they must agree exactly —
// error text, printed module and Stats. (Stride builds do not on long
// sequences; see DESIGN.md "Compilation caching".)
func TestFinalOnlySnapshotsMatchPristineBuilds(t *testing.T) {
	perModule := 100
	if testing.Short() {
		perModule = 10
	}
	vocab := passes.Names()
	for _, tc := range []struct {
		bench string
		plat  Platform
	}{{"525.x264_r", X86()}, {"consumer_jpeg", ARM()}} {
		finalOnly, err := NewEvaluator(ByName(tc.bench), tc.plat, 5)
		if err != nil {
			t.Fatal(err)
		}
		finalOnly.SnapshotEvery = -1
		pristine, err := NewEvaluator(ByName(tc.bench), tc.plat, 5)
		if err != nil {
			t.Fatal(err)
		}
		pristine.CacheCap = -1

		rng := rand.New(rand.NewSource(20260930))
		failed := 0
		for _, name := range finalOnly.Modules() {
			for i := 0; i < perModule; i++ {
				seq := make([]string, 8+rng.Intn(113))
				for j := range seq {
					seq[j] = vocab[rng.Intn(len(vocab))]
				}
				m1, s1, err1 := finalOnly.CompileModule(name, seq)
				m2, s2, err2 := pristine.CompileModule(name, seq)
				if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
					t.Fatalf("%s/%s: errors differ\nfinal-only: %v\npristine:   %v\nseq=%v", tc.bench, name, err1, err2, seq)
				}
				if err1 != nil {
					failed++
					continue
				}
				m1.Renumber()
				m2.Renumber()
				if p1, p2 := m1.String(), m2.String(); p1 != p2 {
					t.Fatalf("%s/%s: modules differ\nseq=%v\n--- final-only ---\n%s\n--- pristine ---\n%s", tc.bench, name, seq, p1, p2)
				}
				if j1, j2 := s1.JSON(), s2.JSON(); j1 != j2 {
					t.Fatalf("%s/%s: stats differ\nseq=%v\nfinal-only=%s\npristine=%s", tc.bench, name, seq, j1, j2)
				}
			}
		}
		t.Logf("%s: %d of %d sequences failed to compile, identically", tc.bench, failed, perModule*len(finalOnly.Modules()))
	}
}
