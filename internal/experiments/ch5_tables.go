package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/passes"
)

func init() {
	register("tab5.1", "pass statistics vs speedup for five orderings on telecom_gsm (Table 5.1)", runTab51)
	register("tab5.2", "coverage issue of the statistics feature space (Table 5.2)", runTab52)
	register("tab5.3", "the 76 passes considered in evaluation (Table 5.3)", runTab53)
	register("tab5.4", "benchmarks used in evaluation (Table 5.4)", runTab54)
	register("tab5.5", "top-5 impactful compilation statistics by ARD relevance (Table 5.5)", runTab55)
	register("fig5.1", "motivating example: how the phase order matters (Fig 5.1)", runFig51)
}

// table51Sequences are the five orderings of the paper's Table 5.1.
func table51Sequences() [][]string {
	return [][]string{
		{"mem2reg", "slp-vectorizer"},
		{"slp-vectorizer", "mem2reg"},
		{"instcombine", "mem2reg", "slp-vectorizer"},
		{"mem2reg", "instcombine", "slp-vectorizer"},
		{"mem2reg", "slp-vectorizer", "instcombine"},
	}
}

func runTab51(c Config) error {
	b := bench.ByName("telecom_gsm")
	ev, err := bench.NewEvaluator(b, c.Platform, c.Seed)
	if err != nil {
		return err
	}
	cols := []string{"SLP.NumVectorInstructions", "mem2reg.NumPHIInsert", "mem2reg.NumPromoted", "instcombine.NumCombined"}
	c.printf("Table 5.1 — pass statistics vs speedup (module long_term, platform %s)\n", c.Platform.Prof.Name)
	c.printf("%-4s %-45s %8s %8s %8s %8s %9s\n", "No.", "Pass Sequence", "SLP.NVI", "m2r.NPI", "m2r.NP", "ic.NC", "Speedup")
	for i, seq := range table51Sequences() {
		_, st, err := ev.CompileModule("long_term", seq)
		if err != nil {
			return err
		}
		_, sp, err := ev.Measure(map[string][]string{"long_term": seq})
		if err != nil {
			return err
		}
		c.printf("%-4d %-45s %8d %8d %8d %8d %8.2fx\n",
			i+1, strings.Join(seq, " "),
			st[cols[0]], st[cols[1]], st[cols[2]], st[cols[3]], sp)
	}
	c.printf("\n(paper shape: sequences with nonzero SLP.NumVectorInstructions outperform; \n instcombine between mem2reg and slp-vectorizer suppresses vectorisation)\n")
	return nil
}

func runTab52(c Config) error {
	b := bench.ByName("telecom_gsm")
	if names := c.Benchmarks; len(names) > 0 {
		b = bench.ByName(names[0])
	}
	opts := c.tunerOptions()
	opts.Budget = c.Budget
	_, res, err := runCitroen(b, c.Platform, opts, c.Seed)
	if err != nil {
		return err
	}
	c.printf("Table 5.2 — coverage issue of the statistics feature space (%s, budget %d)\n", b.Name, c.Budget)
	c.printf("%-48s %8.1f%%\n", "candidate feature vectors duplicating observed ones", res.CandidateDupRate*100)
	c.printf("%-48s %8d\n", "profiling runs saved by duplicate detection", res.SavedMeasurements)
	c.printf("%-48s %8d\n", "selected candidates activating novel dimensions", res.NovelSelections)
	c.printf("%-48s %8d\n", "candidate compilations total", res.Breakdown.Compiles)
	c.printf("%-48s %8d\n", "runtime measurements consumed", res.Breakdown.Measures)
	return nil
}

func runTab53(c Config) error {
	fam := passes.Families()
	c.printf("Table 5.3 — the %d passes considered in evaluation\n", len(passes.All()))
	for _, f := range []string{"ipo", "scalar", "loop", "vector"} {
		c.printf("\n[%s] (%d)\n", f, len(fam[f]))
		for _, name := range fam[f] {
			c.printf("  %-34s %s\n", name, passes.Lookup(name).Desc)
		}
	}
	return nil
}

func runTab54(c Config) error {
	c.printf("Table 5.4 — benchmarks used in evaluation\n")
	c.printf("%-22s %-8s %-8s %s\n", "Benchmark", "Suite", "Modules", "Module names")
	for _, b := range append(bench.CBench(), bench.SPEC()...) {
		c.printf("%-22s %-8s %-8d %s\n", b.Name, b.Suite, len(b.Specs), strings.Join(b.ModuleNames(), ", "))
	}
	return nil
}

func runTab55(c Config) error {
	b := bench.ByName("telecom_gsm")
	if names := c.Benchmarks; len(names) > 0 {
		b = bench.ByName(names[0])
	}
	opts := c.tunerOptions()
	opts.Budget = c.Budget
	_, res, err := runCitroen(b, c.Platform, opts, c.Seed)
	if err != nil {
		return err
	}
	c.printf("Table 5.5 — top 5 impactful compilation statistics recognised by the cost model (%s)\n", b.Name)
	c.printf("%-56s %12s\n", "Statistic (module|counter)", "ARD relevance")
	n := 0
	for _, imp := range res.Importance {
		c.printf("%-56s %12.3f\n", imp.Name, imp.Relevance)
		n++
		if n == 5 {
			break
		}
	}
	return nil
}

func runFig51(c Config) error {
	ev, err := bench.NewEvaluator(bench.ByName("telecom_gsm"), c.Platform, c.Seed)
	if err != nil {
		return err
	}
	c.printf("Fig 5.1 — the phase-ordering interaction on the dot-product kernel\n\n")
	good, stGood, err := ev.CompileModule("long_term", []string{"mem2reg", "slp-vectorizer"})
	if err != nil {
		return err
	}
	c.printf("(a/b) 'mem2reg,slp-vectorizer': SLP.NumVectorInstructions = %d\n", stGood["SLP.NumVectorInstructions"])
	printKernelExcerpt(c, good, "vectorised kernel excerpt")

	bad, stBad, err := ev.CompileModule("long_term", []string{"mem2reg", "instcombine", "slp-vectorizer"})
	if err != nil {
		return err
	}
	c.printf("\n(c) 'mem2reg,instcombine,slp-vectorizer': SLP.NumVectorInstructions = %d\n", stBad["SLP.NumVectorInstructions"])
	c.printf("    instcombine widened the sext chain to i64 (FlagWidened), so SLP's\n")
	c.printf("    profitability check rejects the reduction on a 128-bit target.\n")
	printKernelExcerpt(c, bad, "widened kernel excerpt")
	return nil
}

func printKernelExcerpt(c Config, m interface{ String() string }, title string) {
	lines := strings.Split(m.String(), "\n")
	c.printf("--- %s ---\n", title)
	shown := 0
	for _, l := range lines {
		if strings.Contains(l, "load <") || strings.Contains(l, "vecreduce") ||
			strings.Contains(l, "widened") || strings.Contains(l, "mul <") {
			c.printf("  %s\n", strings.TrimSpace(l))
			shown++
			if shown >= 10 {
				break
			}
		}
	}
	if shown == 0 {
		c.printf("  (no vector or widened instructions)\n")
	}
	_ = fmt.Sprint()
}
