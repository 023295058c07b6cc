package bench

import (
	"strings"
	"testing"

	"repro/internal/passes"
)

func TestSuitesWellFormed(t *testing.T) {
	cb, sp := CBench(), SPEC()
	if len(cb) < 8 {
		t.Fatalf("cBench suite too small: %d", len(cb))
	}
	if len(sp) < 4 {
		t.Fatalf("SPEC suite too small: %d", len(sp))
	}
	seen := map[string]bool{}
	for _, b := range append(cb, sp...) {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if len(b.Specs) == 0 {
			t.Fatalf("%s has no modules", b.Name)
		}
		mods := b.Build(0, 2)
		if len(mods) != len(b.Specs)+1 {
			t.Fatalf("%s: build returned %d modules", b.Name, len(mods))
		}
	}
	if ByName("telecom_gsm") == nil || ByName("nope") != nil {
		t.Fatal("ByName broken")
	}
}

func TestEvaluatorBaselineAndMeasure(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.O3Time() <= 0 {
		t.Fatal("no baseline time")
	}
	if len(ev.O3Stats()) == 0 {
		t.Fatal("no baseline stats")
	}
	// Measuring the O3 build again gives speedup ~1.
	_, sp, err := ev.Measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 0.95 || sp > 1.05 {
		t.Fatalf("O3-vs-O3 speedup = %v, want ~1", sp)
	}
	// A bad sequence (just dce) must be slower than O3.
	_, spBad, err := ev.Measure(map[string][]string{
		"long_term": {"dce"}, "short_term": {"dce"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spBad >= 1 {
		t.Fatalf("un-optimised build should not beat O3: %v", spBad)
	}
}

func TestEvaluatorDifferentialTestingCatchesNothingAtO3(t *testing.T) {
	for _, b := range CBench()[:4] {
		ev, err := NewEvaluator(b, X86(), 2)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if _, _, err := ev.Measure(nil); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}

func TestCompileModuleStats(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 3)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ev.CompileModule("long_term", []string{"mem2reg", "slp-vectorizer"})
	if err != nil {
		t.Fatal(err)
	}
	if st["SLP.NumVectorInstructions"] == 0 {
		t.Fatalf("the telecom_gsm long_term kernel must SLP-vectorise after mem2reg (paper Fig 5.1): %v", st)
	}
	_, stBlocked, err := ev.CompileModule("long_term", []string{"mem2reg", "instcombine", "slp-vectorizer"})
	if err != nil {
		t.Fatal(err)
	}
	if stBlocked["SLP.NumVectorInstructions"] != 0 {
		t.Fatalf("instcombine between mem2reg and slp must block SLP on ARM: %v", stBlocked)
	}
	if ev.Compilations != 2 {
		t.Fatalf("compilations = %d", ev.Compilations)
	}
}

func TestHotModules(t *testing.T) {
	ev, err := NewEvaluator(ByName("525.x264_r"), ARM(), 4)
	if err != nil {
		t.Fatal(err)
	}
	hot, frac, err := ev.HotModules(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 || len(hot) > len(ev.Modules()) {
		t.Fatalf("hot modules = %v", hot)
	}
	total := 0.0
	for _, f := range frac {
		total += f
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("fractions sum to %v", total)
	}
	// Hot list must be sorted by share.
	for i := 1; i < len(hot); i++ {
		if frac[hot[i]] > frac[hot[i-1]]+1e-9 {
			t.Fatalf("hot modules not sorted: %v (%v)", hot, frac)
		}
	}
}

func TestPerModuleSequencesBeatUniformSometimes(t *testing.T) {
	// Sanity: applying the known-good SLP ordering to long_term must at
	// least match O3 (which also vectorises); the point is it must not
	// crash and must run through differential testing.
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 5)
	if err != nil {
		t.Fatal(err)
	}
	seq := []string{"inferattrs", "inline", "mem2reg", "early-cse", "simplifycfg",
		"loop-simplify", "loop-rotate", "indvars", "licm", "loop-unroll",
		"slp-vectorizer", "gvn", "adce", "simplifycfg"}
	_, sp, err := ev.Measure(map[string][]string{"long_term": seq})
	if err != nil {
		t.Fatal(err)
	}
	if sp < 0.5 {
		t.Fatalf("custom sequence catastrophically slow: %v", sp)
	}
}

func TestO3BeatsO0OnEveryBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, b := range append(CBench(), SPEC()...) {
		ev, err := NewEvaluator(b, ARM(), 6)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		// Compare O3 time to an O0 (empty-sequence) build.
		seqs := map[string][]string{}
		for _, m := range ev.Modules() {
			seqs[m] = []string{}
		}
		tO0, _, err := ev.Measure(seqs)
		_ = tO0
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		_, spO0, _ := ev.Measure(seqs)
		if spO0 >= 1 {
			t.Errorf("%s: O0 build at least as fast as O3 (speedup %v)", b.Name, spO0)
		}
	}
	_ = passes.Names
}

// TestEvaluatorCacheReusesIncumbentCompiles pins the memo cache: measuring a
// configuration only re-runs pass pipelines for modules whose sequence
// changed since the last build; unchanged incumbents come back as cached
// post-pipeline clones.
func TestEvaluatorCacheReusesIncumbentCompiles(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Compilations != 0 {
		t.Fatalf("counters not reset after baseline: %d", ev.Compilations)
	}
	// The O3 baseline modules were cached during construction: re-measuring
	// the O3 build must not compile anything.
	if _, _, err := ev.Measure(nil); err != nil {
		t.Fatal(err)
	}
	if ev.Compilations != 0 {
		t.Fatalf("O3 incumbents recompiled: %d pipeline runs", ev.Compilations)
	}
	hits, misses := ev.CacheCounters()
	if hits == 0 || misses != 0 {
		t.Fatalf("cache counters after O3 re-measure: %d hits / %d misses", hits, misses)
	}

	// Change one module: only that module recompiles, once per dataset.
	seqs := map[string][]string{"long_term": {"mem2reg", "dce"}}
	if _, _, err := ev.Measure(seqs); err != nil {
		t.Fatal(err)
	}
	afterChange := ev.Compilations
	if afterChange != ev.Datasets {
		t.Fatalf("changed module: %d pipeline runs, want %d (one per dataset)",
			afterChange, ev.Datasets)
	}
	// Re-measuring the identical configuration must not compile at all.
	if _, _, err := ev.Measure(seqs); err != nil {
		t.Fatal(err)
	}
	if ev.Compilations != afterChange {
		t.Fatalf("unchanged incumbents recompiled: %d -> %d pipeline runs",
			afterChange, ev.Compilations)
	}
}

// TestEvaluatorCacheDoesNotChangeResults builds the same configuration on a
// cached and an uncached evaluator with identical seeds: measured times must
// be bit-identical, i.e. cache reuse yields the same binaries.
func TestEvaluatorCacheDoesNotChangeResults(t *testing.T) {
	cached, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 8)
	if err != nil {
		t.Fatal(err)
	}
	plain.CacheCap = -1
	seqs := map[string][]string{"long_term": {"mem2reg", "slp-vectorizer", "dce"}}
	for i := 0; i < 3; i++ {
		tc, spc, err := cached.Measure(seqs)
		if err != nil {
			t.Fatal(err)
		}
		tp, spp, err := plain.Measure(seqs)
		if err != nil {
			t.Fatal(err)
		}
		if tc != tp || spc != spp {
			t.Fatalf("round %d: cached (%v, %v) != uncached (%v, %v)", i, tc, spc, tp, spp)
		}
	}
	if h, _ := plain.CacheCounters(); h != 0 {
		t.Fatalf("disabled cache still recorded %d hits", h)
	}
	if h, _ := cached.CacheCounters(); h == 0 {
		t.Fatal("cache never hit on repeated measurements")
	}
	if plain.Compilations <= cached.Compilations {
		t.Fatalf("cache saved nothing: %d vs %d pipeline runs",
			cached.Compilations, plain.Compilations)
	}
}

// TestEvaluatorCacheEviction bounds the cache: with a tiny capacity the LRU
// must evict rather than grow, and evictions must not corrupt results.
func TestEvaluatorCacheEviction(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 9)
	if err != nil {
		t.Fatal(err)
	}
	ev.CacheCap = 2
	ref, _, err := ev.Measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		seqs := map[string][]string{"long_term": {"mem2reg", "dce"}}
		if i%2 == 1 {
			seqs = nil
		}
		tm, _, err := ev.Measure(seqs)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if seqs == nil && tm <= 0 {
			t.Fatalf("round %d: bad time %v (ref %v)", i, tm, ref)
		}
	}
	if ev.lru.Len() > 2 {
		t.Fatalf("cache grew past its cap: %d entries", ev.lru.Len())
	}
}

func TestPlatformByName(t *testing.T) {
	for _, tc := range []struct {
		in   string
		prof string // "" = rejected
	}{
		{"", ARM().Prof.Name},
		{"arm", ARM().Prof.Name},
		{"x86", X86().Prof.Name},
		{"ARM", ""},
		{"ARM64", ""},
		{"x86_64", ""},
		{" arm", ""},
	} {
		p, err := PlatformByName(tc.in)
		switch {
		case tc.prof == "" && err == nil:
			t.Errorf("PlatformByName(%q) = %s, want an error", tc.in, p.Prof.Name)
		case tc.prof == "":
			if !strings.Contains(err.Error(), "arm") || !strings.Contains(err.Error(), "x86") {
				t.Errorf("PlatformByName(%q): error %q does not name the valid values", tc.in, err)
			}
		case err != nil || p.Prof.Name != tc.prof:
			t.Errorf("PlatformByName(%q) = %s, %v; want %s", tc.in, p.Prof.Name, err, tc.prof)
		case p.Name != "arm" && p.Name != tc.in:
			t.Errorf("PlatformByName(%q).Name = %q", tc.in, p.Name)
		}
	}
}
