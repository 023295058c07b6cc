package experiments

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/obs/analyze"
	"repro/internal/passes"
	"repro/internal/tuners"
)

func init() {
	register("fig5.6", "average speedup over -O3 on cBench and SPEC, all methods (Fig 5.6)", runFig56)
	register("fig5.7", "speedup vs search-iteration budget (Fig 5.7)", runFig57)
	register("fig5.8", "ablation study (Fig 5.8)", runFig58)
	register("fig5.9", "alternative feature extraction methods (Fig 5.9)", runFig59)
	register("fig5.10", "CITROEN vs Autophase features on the reduced 'LLVM 10' pass set (Fig 5.10)", runFig510)
	register("fig5.11", "hyperparameter sensitivity (Fig 5.11)", runFig511)
	register("fig5.12", "proportion of algorithmic runtime (Fig 5.12)", runFig512)
	register("adaptive", "adaptive vs round-robin multi-module budget allocation (§5.5, 2.5x claim)", runAdaptive)
}

// defaultCBenchSubset keeps quick runs quick; the CLI can widen it.
var defaultCBenchSubset = []string{"telecom_gsm", "automotive_susan", "office_stringsearch"}
var defaultSPECSubset = []string{"525.x264_r"}

func runFig56(c Config) error {
	plat := c.Platform
	groups := map[string][]string{
		"cBench": c.Benchmarks,
		"SPEC":   nil,
	}
	if len(c.Benchmarks) == 0 {
		groups["cBench"] = defaultCBenchSubset
		groups["SPEC"] = defaultSPECSubset
	} else {
		delete(groups, "SPEC")
	}
	c.printf("Fig 5.6 — average speedup over -O3 (budget %d, platform %s, %d repeat(s))\n",
		c.Budget, plat.Prof.Name, c.Repeats)
	for _, suite := range []string{"cBench", "SPEC"} {
		names := groups[suite]
		if len(names) == 0 {
			continue
		}
		c.printf("\n[%s: %v]\n", suite, names)
		perMethod := map[string][]float64{}
		for _, name := range names {
			b := bench.ByName(name)
			if b == nil {
				continue
			}
			for r := 0; r < c.Repeats; r++ {
				seed := c.Seed + int64(r)*101
				opts := c.tunerOptions()
				opts.Budget = c.Budget
				sp, _, err := runCitroen(b, plat, opts, seed)
				if err != nil {
					return err
				}
				perMethod["CITROEN"] = append(perMethod["CITROEN"], sp)
				for _, t := range tunerSet() {
					spB, _, err := runBaseline(t, b, plat, c.Budget, seed)
					if err != nil {
						return err
					}
					perMethod[t.Name()] = append(perMethod[t.Name()], spB)
				}
			}
		}
		for _, m := range sortedKeys(perMethod) {
			c.printf("  %-14s geo-mean speedup %.3fx\n", m, numeric.GeoMean(perMethod[m]))
		}
	}
	c.printf("\n(paper shape: CITROEN highest on both suites)\n")
	return nil
}

func runFig57(c Config) error {
	plat := c.Platform
	budgets := []int{c.Budget / 3, c.Budget * 2 / 3, c.Budget, c.Budget * 2}
	names := c.Benchmarks
	if len(names) == 0 {
		names = []string{"telecom_gsm"}
	}
	c.printf("Fig 5.7 — best speedup vs measurement budget (%v, platform %s)\n", names, plat.Prof.Name)
	c.printf("%-14s", "method")
	for _, b := range budgets {
		c.printf(" %8d", b)
	}
	c.printf("\n")
	methods := []string{"CITROEN", "RandomSearch", "GA", "BOCA"}
	series := map[string][]float64{}
	for _, name := range names {
		b := bench.ByName(name)
		// One long run per method; read the trace at each budget point.
		opts := c.tunerOptions()
		opts.Budget = budgets[len(budgets)-1]
		_, resC, err := runCitroen(b, plat, opts, c.Seed)
		if err != nil {
			return err
		}
		for _, bud := range budgets {
			series["CITROEN"] = append(series["CITROEN"], traceAt(citroenTrace(resC), bud))
		}
		for _, t := range []tuners.Tuner{tuners.Random{}, tuners.GA{}, tuners.BOCA{}} {
			_, resB, err := runBaseline(t, b, plat, budgets[len(budgets)-1], c.Seed)
			if err != nil {
				return err
			}
			for _, bud := range budgets {
				series[t.Name()] = append(series[t.Name()], traceAt(resB.Trace, bud))
			}
		}
	}
	nb := len(budgets)
	for _, m := range methods {
		vals := series[m]
		c.printf("%-14s", m)
		for i := 0; i < nb; i++ {
			var col []float64
			for j := i; j < len(vals); j += nb {
				col = append(col, vals[j])
			}
			c.printf(" %7.3fx", numeric.GeoMean(col))
		}
		c.printf("\n")
	}
	c.printf("(paper shape: CITROEN at 1/3 budget ~ baselines at full budget)\n")
	return nil
}

func citroenTrace(r *core.Result) []float64 {
	out := make([]float64, len(r.Trace))
	for i, tp := range r.Trace {
		out[i] = tp.BestSpeedup
	}
	return out
}

func traceAt(trace []float64, budget int) float64 {
	if len(trace) == 0 {
		return 1
	}
	if budget > len(trace) {
		budget = len(trace)
	}
	return trace[budget-1]
}

func runFig58(c Config) error {
	plat := c.Platform
	names := c.Benchmarks
	if len(names) == 0 {
		names = []string{"telecom_gsm", "automotive_susan"}
	}
	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"CITROEN (full)", func(*core.Options) {}},
		{"- stats features (raw seq)", func(o *core.Options) { o.Feature = core.FeatRawSeq }},
		{"- coverage AF", func(o *core.Options) { o.CoverageAF = false }},
		{"- heuristic init (random cands)", func(o *core.Options) { o.HeuristicInit = false }},
	}
	c.printf("Fig 5.8 — ablation study (budget %d, %v)\n", c.Budget, names)
	for _, v := range variants {
		var sps []float64
		for _, name := range names {
			b := bench.ByName(name)
			for r := 0; r < c.Repeats; r++ {
				opts := c.tunerOptions()
				opts.Budget = c.Budget
				v.mod(&opts)
				sp, _, err := runCitroen(b, plat, opts, c.Seed+int64(r)*17)
				if err != nil {
					return err
				}
				sps = append(sps, sp)
			}
		}
		c.printf("  %-34s geo-mean speedup %.3fx\n", v.name, numeric.GeoMean(sps))
	}
	c.printf("(paper shape: every ablation degrades the full system)\n")
	return nil
}

func runFig59(c Config) error {
	plat := c.Platform
	names := c.Benchmarks
	if len(names) == 0 {
		names = []string{"telecom_gsm", "office_stringsearch"}
	}
	c.printf("Fig 5.9 — alternative feature extraction methods (budget %d, %v)\n", c.Budget, names)
	for _, feat := range []core.FeatureKind{core.FeatStats, core.FeatAutophase, core.FeatTokenMix, core.FeatRawSeq} {
		var sps []float64
		for _, name := range names {
			b := bench.ByName(name)
			for r := 0; r < c.Repeats; r++ {
				opts := c.tunerOptions()
				opts.Budget = c.Budget
				opts.Feature = feat
				sp, _, err := runCitroen(b, plat, opts, c.Seed+int64(r)*31)
				if err != nil {
					return err
				}
				sps = append(sps, sp)
			}
		}
		c.printf("  %-12s geo-mean speedup %.3fx\n", feat.String(), numeric.GeoMean(sps))
	}
	c.printf("(paper shape: compilation statistics beat Autophase/token/raw features)\n")
	return nil
}

func runFig510(c Config) error {
	plat := c.Platform
	names := c.Benchmarks
	if len(names) == 0 {
		names = []string{"telecom_gsm"}
	}
	vocab := passes.LLVM10Names()
	c.printf("Fig 5.10 — reduced 'LLVM 10' pass set (%d passes; budget %d, %v)\n", len(vocab), c.Budget, names)
	for _, variant := range []struct {
		name string
		feat core.FeatureKind
	}{
		{"CITROEN(stats)", core.FeatStats},
		{"Autophase-features", core.FeatAutophase},
	} {
		var sps []float64
		for _, name := range names {
			b := bench.ByName(name)
			opts := c.tunerOptions()
			opts.Budget = c.Budget
			opts.Feature = variant.feat
			opts.Vocab = vocab
			sp, _, err := runCitroen(b, plat, opts, c.Seed)
			if err != nil {
				return err
			}
			sps = append(sps, sp)
		}
		c.printf("  %-20s geo-mean speedup %.3fx\n", variant.name, numeric.GeoMean(sps))
	}
	return nil
}

func runFig511(c Config) error {
	plat := c.Platform
	b := bench.ByName("telecom_gsm")
	if len(c.Benchmarks) > 0 {
		b = bench.ByName(c.Benchmarks[0])
	}
	c.printf("Fig 5.11 — hyperparameter sensitivity (%s, budget %d)\n", b.Name, c.Budget)
	type variant struct {
		name string
		mod  func(*core.Options)
	}
	groups := map[string][]variant{
		"lambda (candidates/iter)": {
			{"lambda=3", func(o *core.Options) { o.Lambda = 3 }},
			{"lambda=9", func(o *core.Options) { o.Lambda = 9 }},
			{"lambda=15", func(o *core.Options) { o.Lambda = 15 }},
		},
		"UCB beta": {
			{"beta=0.5", func(o *core.Options) { o.Beta = 0.5 }},
			{"beta=1.96", func(o *core.Options) { o.Beta = 1.96 }},
			{"beta=4", func(o *core.Options) { o.Beta = 4 }},
		},
		"coverage gamma": {
			{"gamma=0", func(o *core.Options) { o.CoverageGamma = 0 }},
			{"gamma=0.3", func(o *core.Options) { o.CoverageGamma = 0.3 }},
			{"gamma=1.0", func(o *core.Options) { o.CoverageGamma = 1.0 }},
		},
	}
	for _, g := range sortedKeys(groups) {
		c.printf("\n[%s]\n", g)
		for _, v := range groups[g] {
			opts := c.tunerOptions()
			opts.Budget = c.Budget
			v.mod(&opts)
			sp, _, err := runCitroen(b, plat, opts, c.Seed)
			if err != nil {
				return err
			}
			c.printf("  %-12s speedup %.3fx\n", v.name, sp)
		}
	}
	c.printf("\n(paper shape: performance is stable across moderate hyperparameter changes)\n")
	return nil
}

func runFig512(c Config) error {
	b := bench.ByName("telecom_gsm")
	if len(c.Benchmarks) > 0 {
		b = bench.ByName(c.Benchmarks[0])
	}
	opts := c.tunerOptions()
	opts.Budget = c.Budget
	_, res, err := runCitroen(b, c.Platform, opts, c.Seed)
	if err != nil {
		return err
	}
	bd := res.Breakdown
	total := bd.Total.Seconds()
	if total <= 0 {
		total = 1
	}
	c.printf("Fig 5.12 — proportion of algorithmic runtime (%s, budget %d)\n", b.Name, c.Budget)
	c.printf("  %-28s %6.1f%%\n", "candidate compilation", 100*bd.Compile.Seconds()/total)
	c.printf("  %-28s %6.1f%%\n", "runtime measurement", 100*bd.Measure.Seconds()/total)
	c.printf("  %-28s %6.1f%%\n", "GP model fitting", 100*bd.GPFit.Seconds()/total)
	other := total - bd.Compile.Seconds() - bd.Measure.Seconds() - bd.GPFit.Seconds()
	c.printf("  %-28s %6.1f%%\n", "acquisition + bookkeeping", 100*other/total)
	c.printf("  total wall clock: %v; %d compiles, %d measurements\n", bd.Total, bd.Compiles, bd.Measures)
	analyze.WriteCounters(c.Out, bd.Counters.Canonical())
	return nil
}

func runAdaptive(c Config) error {
	plat := c.Platform
	b := bench.ByName("525.x264_r")
	if len(c.Benchmarks) > 0 {
		b = bench.ByName(c.Benchmarks[0])
	}
	c.printf("Adaptive multi-module budget allocation (%s, budget %d)\n", b.Name, c.Budget)
	type mode struct {
		name     string
		adaptive bool
	}
	results := map[string]*core.Result{}
	for _, m := range []mode{{"adaptive", true}, {"round-robin", false}} {
		opts := c.tunerOptions()
		opts.Budget = c.Budget
		opts.Adaptive = m.adaptive
		_, res, err := runCitroen(b, plat, opts, c.Seed)
		if err != nil {
			return err
		}
		results[m.name] = res
		c.printf("  %-12s final speedup %.3fx, per-module budget %v\n", m.name, res.BestSpeedup, res.ModuleBudget)
	}
	// Convergence ratio: measurements for round-robin to reach the adaptive
	// scheme's speedup at half budget.
	target := traceAt(citroenTrace(results["adaptive"]), c.Budget/2)
	adaptN := firstReach(citroenTrace(results["adaptive"]), target)
	rrN := firstReach(citroenTrace(results["round-robin"]), target)
	if adaptN > 0 && rrN > 0 {
		c.printf("  measurements to reach %.3fx: adaptive %d, round-robin %d (ratio %.2fx)\n",
			target, adaptN, rrN, float64(rrN)/float64(adaptN))
	} else if rrN < 0 {
		c.printf("  round-robin never reached the adaptive scheme's half-budget speedup %.3fx\n", target)
	}
	c.printf("(paper shape: adaptive converges up to ~2.5x faster)\n")
	return nil
}

func firstReach(trace []float64, target float64) int {
	for i, v := range trace {
		if v >= target-1e-9 {
			return i + 1
		}
	}
	return -1
}
