package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
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
	type suite struct {
		name       string
		benchmarks []string
	}
	suites := []suite{{"cBench", c.Benchmarks}}
	if len(c.Benchmarks) == 0 {
		suites = []suite{{"cBench", defaultCBenchSubset}, {"SPEC", defaultSPECSubset}}
	}
	c.printf("Fig 5.6 — average speedup over -O3 (budget %d, platform %s, %d repeat(s))\n",
		c.Budget, c.Platform.Prof.Name, c.Repeats)
	arms := append([]arm{c.citroenArm("CITROEN", nil)}, baselineArms(
		tuners.Random{}, tuners.GA{}, tuners.HillClimb{}, tuners.Anneal{}, tuners.Ensemble{}, tuners.BOCA{})...)
	for _, s := range suites {
		c.printf("\n[%s: %v]\n", s.name, s.benchmarks)
		traces, err := c.sweep(arms, s.benchmarks, c.Budget)
		if err != nil {
			return err
		}
		geo := map[string]float64{}
		for a, arm := range arms {
			geo[arm.name] = geoAt(traces[a], c.Budget)
		}
		for _, m := range sortedKeys(geo) {
			c.printf("  %-14s geo-mean speedup %.3fx\n", m, geo[m])
		}
	}
	c.printf("\n(paper shape: CITROEN highest on both suites)\n")
	return nil
}

func runFig57(c Config) error {
	budgets := []int{c.Budget / 3, c.Budget * 2 / 3, c.Budget, c.Budget * 2}
	names := c.benchmarksOr("telecom_gsm")
	c.printf("Fig 5.7 — best speedup vs measurement budget (%v, platform %s)\n", names, c.Platform.Prof.Name)
	c.printf("%-14s", "method")
	for _, b := range budgets {
		c.printf(" %8d", b)
	}
	c.printf("\n")
	// One run per arm at the largest budget; its trace is read at each point.
	arms := append([]arm{c.citroenArm("CITROEN", nil)}, baselineArms(tuners.Random{}, tuners.GA{}, tuners.BOCA{})...)
	traces, err := c.sweep(arms, names, budgets[len(budgets)-1])
	if err != nil {
		return err
	}
	for a, arm := range arms {
		c.printf("%-14s", arm.name)
		for _, bud := range budgets {
			c.printf(" %7.3fx", geoAt(traces[a], bud))
		}
		c.printf("\n")
	}
	c.printf("(paper shape: CITROEN at 1/3 budget ~ baselines at full budget)\n")
	return nil
}

func runFig58(c Config) error {
	names := c.benchmarksOr("telecom_gsm", "automotive_susan")
	c.printf("Fig 5.8 — ablation study (budget %d, %v)\n", c.Budget, names)
	err := c.compare([]arm{
		c.citroenArm("CITROEN (full)", nil),
		c.citroenArm("- stats features (raw seq)", func(o *core.Options) { o.Feature = core.FeatRawSeq }),
		c.citroenArm("- coverage AF", func(o *core.Options) { o.CoverageAF = false }),
		c.citroenArm("- heuristic init (random cands)", func(o *core.Options) { o.HeuristicInit = false }),
	}, names, 34)
	if err != nil {
		return err
	}
	c.printf("(paper shape: every ablation degrades the full system)\n")
	return nil
}

func runFig59(c Config) error {
	names := c.benchmarksOr("telecom_gsm", "office_stringsearch")
	c.printf("Fig 5.9 — alternative feature extraction methods (budget %d, %v)\n", c.Budget, names)
	var arms []arm
	for _, feat := range []core.FeatureKind{core.FeatStats, core.FeatAutophase, core.FeatTokenMix, core.FeatRawSeq} {
		arms = append(arms, c.citroenArm(feat.String(), func(o *core.Options) { o.Feature = feat }))
	}
	if err := c.compare(arms, names, 12); err != nil {
		return err
	}
	c.printf("(paper shape: compilation statistics beat Autophase/token/raw features)\n")
	return nil
}

func runFig510(c Config) error {
	names := c.benchmarksOr("telecom_gsm")
	vocab := passes.LLVM10Names()
	c.printf("Fig 5.10 — reduced 'LLVM 10' pass set (%d passes; budget %d, %v)\n", len(vocab), c.Budget, names)
	reduced := func(feat core.FeatureKind) func(*core.Options) {
		return func(o *core.Options) { o.Feature, o.Vocab = feat, vocab }
	}
	return c.compare([]arm{
		c.citroenArm("CITROEN(stats)", reduced(core.FeatStats)),
		c.citroenArm("Autophase-features", reduced(core.FeatAutophase)),
	}, names, 20)
}

func runFig511(c Config) error {
	name := c.benchmarksOr("telecom_gsm")[0]
	c.printf("Fig 5.11 — hyperparameter sensitivity (%s, budget %d)\n", name, c.Budget)
	groups := []struct {
		name string
		arms []arm
	}{
		{"UCB beta", []arm{
			c.citroenArm("beta=0.5", func(o *core.Options) { o.Beta = 0.5 }),
			c.citroenArm("beta=1.96", func(o *core.Options) { o.Beta = 1.96 }),
			c.citroenArm("beta=4", func(o *core.Options) { o.Beta = 4 }),
		}},
		{"coverage gamma", []arm{
			c.citroenArm("gamma=0", func(o *core.Options) { o.CoverageGamma = 0 }),
			c.citroenArm("gamma=0.3", func(o *core.Options) { o.CoverageGamma = 0.3 }),
			c.citroenArm("gamma=1.0", func(o *core.Options) { o.CoverageGamma = 1.0 }),
		}},
		{"lambda (candidates/iter)", []arm{
			c.citroenArm("lambda=3", func(o *core.Options) { o.Lambda = 3 }),
			c.citroenArm("lambda=9", func(o *core.Options) { o.Lambda = 9 }),
			c.citroenArm("lambda=15", func(o *core.Options) { o.Lambda = 15 }),
		}},
	}
	for _, g := range groups {
		c.printf("\n[%s]\n", g.name)
		traces, err := c.sweep(g.arms, []string{name}, c.Budget)
		if err != nil {
			return err
		}
		for a, arm := range g.arms {
			c.printf("  %-12s speedup %.3fx\n", arm.name, geoAt(traces[a], c.Budget))
		}
	}
	c.printf("\n(paper shape: performance is stable across moderate hyperparameter changes)\n")
	return nil
}

func runFig512(c Config) error {
	name := c.benchmarksOr("telecom_gsm")[0]
	// The journal is the one account of where the time went: an Analyzer
	// on the run's sink partitions its wall clock over the phases.
	an := analyze.NewAnalyzer()
	opts := c.tunerOptions()
	opts.Sink = obs.Multi(opts.Sink, an)
	res, err := c.runCitroen(name, opts)
	if err != nil {
		return err
	}
	rep := an.Report()
	labels := map[analyze.Phase]string{
		analyze.PhaseCompile: "candidate compilation",
		analyze.PhaseMeasure: "runtime measurement",
		analyze.PhaseGPFit:   "GP model fitting",
		analyze.PhaseAcq:     "acquisition",
		analyze.PhaseOther:   "bookkeeping (untimed)",
	}
	wall := float64(max(rep.WallNS, 1))
	c.printf("Fig 5.12 — proportion of algorithmic runtime (%s, budget %d)\n", name, c.Budget)
	for _, pt := range rep.Phases {
		c.printf("  %-28s %6.2f%%\n", labels[pt.Phase], 100*float64(pt.ElapsedNS)/wall)
	}
	c.printf("  total wall clock: %v; %d compiles, %d measurements\n",
		time.Duration(rep.WallNS), res.Breakdown.Compiles, res.Breakdown.Measures)
	analyze.WriteCounters(c.Out, res.Breakdown.Counters.Canonical())
	return nil
}

func runAdaptive(c Config) error {
	name := c.benchmarksOr("525.x264_r")[0]
	c.printf("Adaptive multi-module budget allocation (%s, budget %d)\n", name, c.Budget)
	type mode struct {
		name     string
		adaptive bool
	}
	results := map[string]*core.Result{}
	for _, m := range []mode{{"adaptive", true}, {"round-robin", false}} {
		opts := c.tunerOptions()
		opts.Adaptive = m.adaptive
		res, err := c.runCitroen(name, opts)
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
