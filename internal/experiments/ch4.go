package experiments

import (
	"math/rand"
	"time"

	"repro/internal/acq"
	"repro/internal/aibo"
	"repro/internal/bench"
	"repro/internal/heuristic"
	"repro/internal/numeric"
	"repro/internal/passes"
	"repro/internal/synth"
)

func init() {
	register("fig4.3", "AF-based vs random vs oracle candidate selection, Ackley (Fig 4.3)", runFig43)
	register("fig4.4", "compiler flag selection: AIBO vs BO-grad (Fig 4.4)", runFig44)
	register("fig4.5", "AIBO vs baselines on synthetic functions (Fig 4.5)", runFig45)
	register("fig4.7", "AIBO and BO-grad under different acquisition functions (Fig 4.7)", runFig47)
	register("fig4.15", "impact of the AF on GA population diversity (Fig 4.15)", runFig415)
	register("tab4.2", "algorithmic runtime of AIBO vs BO-grad (Table 4.2)", runTab42)
}

// synthDim scales the synthetic dimensionality with the config budget so
// quick runs stay quick (paper: 20/100/300-D).
func (c Config) synthDim() int {
	d := int(20 * c.Scale)
	if d < 5 {
		d = 5
	}
	return d
}

func (c Config) aiboBudget() int {
	b := c.Budget * 3
	if b < 40 {
		b = 40
	}
	return b
}

func fastAIBO(budget int) aibo.Options {
	o := aibo.DefaultOptions()
	o.InitSamples = budget / 4
	if o.InitSamples < 8 {
		o.InitSamples = 8
	}
	o.RawCandidates = 100
	o.GradSteps = 10
	o.RefitEvery = 3
	o.GPOpts.AdamSteps = 25
	return o
}

func boxFor(f synth.Function, d int) heuristic.Bounds {
	b := make(heuristic.Bounds, d)
	for i := range b {
		b[i] = [2]float64{f.Lo, f.Hi}
	}
	return b
}

func runFig43(c Config) error {
	f := synth.Ackley()
	d := c.synthDim() * 2
	budget := c.aiboBudget()
	c.printf("Fig 4.3 — selection among AF-maximiser candidates (Ackley%d, budget %d)\n", d, budget)
	for _, mode := range []struct {
		name string
		sel  aibo.SelectionMode
	}{
		{"AF-based selection", aibo.SelectByAF},
		{"random selection", aibo.SelectRandom},
		{"oracle selection", aibo.SelectOracle},
	} {
		o := fastAIBO(budget)
		o.Strategies = []aibo.Strategy{aibo.StratRandom} // BO-grad setting
		o.TopN = 10                                      // selection pool of restarts
		o.Selection = mode.sel
		res, err := aibo.Minimize(f.Eval, boxFor(f, d), budget, o, c.Seed)
		if err != nil {
			return err
		}
		c.printf("  %-22s best f = %.3f\n", mode.name, res.BestY)
	}
	c.printf("(paper shape: AF-based close to oracle, better than random — the AF is\n effective but limited by its candidate pool)\n")
	return nil
}

// flagObjective builds the Fig 4.4 compiler-flag-selection task: each of the
// distinct passes of the O3 pipeline is a binary flag; disabling a flag
// removes every occurrence of that pass from the pipeline. The objective is
// the measured runtime of telecom_gsm relative to -O3.
func flagObjective(c Config) (func(x []float64) float64, int, error) {
	ev, err := bench.NewEvaluator(bench.ByName("telecom_gsm"), c.Platform, c.Seed)
	if err != nil {
		return nil, 0, err
	}
	pipeline := passes.O3Sequence()
	var distinct []string
	seen := map[string]bool{}
	for _, p := range pipeline {
		if !seen[p] {
			seen[p] = true
			distinct = append(distinct, p)
		}
	}
	idx := map[string]int{}
	for i, p := range distinct {
		idx[p] = i
	}
	obj := func(x []float64) float64 {
		var seq []string
		for _, p := range pipeline {
			if x[idx[p]] >= 0.5 {
				seq = append(seq, p)
			}
		}
		seqs := map[string][]string{}
		for _, m := range ev.Modules() {
			seqs[m] = seq
		}
		t, _, err := ev.Measure(seqs)
		if err != nil {
			return 10
		}
		return t / ev.O3Time()
	}
	return obj, len(distinct), nil
}

func runFig44(c Config) error {
	obj, d, err := flagObjective(c)
	if err != nil {
		return err
	}
	budget := c.Budget * 2
	if budget < 40 {
		budget = 40
	}
	box := make(heuristic.Bounds, d)
	for i := range box {
		box[i] = [2]float64{0, 1}
	}
	c.printf("Fig 4.4 — compiler flag selection (%d binary flags, budget %d)\n", d, budget)
	aio := fastAIBO(budget)
	res, err := aibo.Minimize(obj, box, budget, aio, c.Seed)
	if err != nil {
		return err
	}
	gro := fastAIBO(budget)
	gro.Strategies = []aibo.Strategy{aibo.StratRandom}
	resG, err := aibo.Minimize(obj, box, budget, gro, c.Seed)
	if err != nil {
		return err
	}
	c.printf("  %-10s best relative runtime %.4f (speedup over O3 %.3fx)\n", "AIBO", res.BestY, 1/res.BestY)
	c.printf("  %-10s best relative runtime %.4f (speedup over O3 %.3fx)\n", "BO-grad", resG.BestY, 1/resG.BestY)
	c.printf("(paper shape: AIBO converges to faster binaries than BO-grad)\n")
	return nil
}

func runFig45(c Config) error {
	d := c.synthDim() * 3 // high-dimensional regime
	budget := c.aiboBudget()
	funcs := synth.All()
	c.printf("Fig 4.5 — synthetic functions at %dD, budget %d (lower is better)\n", d, budget)
	c.printf("%-12s", "method")
	for _, f := range funcs {
		c.printf(" %12s", f.Name)
	}
	c.printf("\n")

	type method struct {
		name string
		run  func(f synth.Function) (float64, error)
	}
	methods := []method{
		{"AIBO", func(f synth.Function) (float64, error) {
			r, err := aibo.Minimize(f.Eval, boxFor(f, d), budget, fastAIBO(budget), c.Seed)
			if err != nil {
				return 0, err
			}
			return r.BestY, nil
		}},
		{"BO-grad", func(f synth.Function) (float64, error) {
			o := fastAIBO(budget)
			o.Strategies = []aibo.Strategy{aibo.StratRandom}
			r, err := aibo.Minimize(f.Eval, boxFor(f, d), budget, o, c.Seed)
			if err != nil {
				return 0, err
			}
			return r.BestY, nil
		}},
		{"TuRBO", func(f synth.Function) (float64, error) {
			o := aibo.DefaultTuRBOOptions()
			o.InitSamples = budget / 4
			o.Candidates = 100
			o.GPOpts.AdamSteps = 20
			o.RefitEvery = 3
			r, err := aibo.TuRBOMinimize(f.Eval, boxFor(f, d), budget, o, c.Seed)
			if err != nil {
				return 0, err
			}
			return r.BestY, nil
		}},
		{"CMA-ES", func(f synth.Function) (float64, error) {
			return runHeuristic(heuristic.NewCMAES(boxFor(f, d), 0.2, 0, rand.New(rand.NewSource(c.Seed))), f.Eval, budget), nil
		}},
		{"GA", func(f synth.Function) (float64, error) {
			return runHeuristic(heuristic.NewGA(boxFor(f, d), 50, rand.New(rand.NewSource(c.Seed))), f.Eval, budget), nil
		}},
		{"Random", func(f synth.Function) (float64, error) {
			return runHeuristic(&heuristic.RandomSearch{B: boxFor(f, d), Rng: rand.New(rand.NewSource(c.Seed))}, f.Eval, budget), nil
		}},
	}
	for _, m := range methods {
		c.printf("%-12s", m.name)
		for _, f := range funcs {
			v, err := m.run(f)
			if err != nil {
				return err
			}
			c.printf(" %12.2f", v)
		}
		c.printf("\n")
	}
	c.printf("(paper shape: AIBO best or near-best on most functions, margin grows with dimension)\n")
	return nil
}

func runHeuristic(opt heuristic.Continuous, eval func([]float64) float64, budget int) float64 {
	best := 1e300
	for i := 0; i < budget; i++ {
		for _, x := range opt.Ask(1) {
			y := eval(x)
			opt.Tell(x, y)
			if y < best {
				best = y
			}
		}
	}
	return best
}

func runFig47(c Config) error {
	f := synth.Ackley()
	d := c.synthDim() * 2
	budget := c.aiboBudget()
	c.printf("Fig 4.7 — AIBO vs BO-grad under different acquisition functions (Ackley%d, budget %d)\n", d, budget)
	afs := []struct {
		name string
		kind acq.Kind
		beta float64
	}{
		{"UCB1", acq.UCB, 1}, {"UCB1.96", acq.UCB, 1.96}, {"UCB4", acq.UCB, 4}, {"EI", acq.EI, 0},
	}
	for _, af := range afs {
		o := fastAIBO(budget)
		o.AF, o.Beta = af.kind, af.beta
		res, err := aibo.Minimize(f.Eval, boxFor(f, d), budget, o, c.Seed)
		if err != nil {
			return err
		}
		og := fastAIBO(budget)
		og.AF, og.Beta = af.kind, af.beta
		og.Strategies = []aibo.Strategy{aibo.StratRandom}
		resG, err := aibo.Minimize(f.Eval, boxFor(f, d), budget, og, c.Seed)
		if err != nil {
			return err
		}
		c.printf("  %-8s AIBO %.3f   BO-grad %.3f\n", af.name, res.BestY, resG.BestY)
	}
	c.printf("(paper shape: AIBO <= BO-grad under every AF)\n")
	return nil
}

func runFig415(c Config) error {
	f := synth.Ackley()
	d := c.synthDim() * 2
	budget := c.aiboBudget()
	c.printf("Fig 4.15 — GA population diversity under UCB1.96 vs UCB9 (Ackley%d)\n", d)
	for _, beta := range []float64{1.96, 9} {
		o := fastAIBO(budget)
		o.Beta = beta
		res, err := aibo.Minimize(f.Eval, boxFor(f, d), budget, o, c.Seed)
		if err != nil {
			return err
		}
		c.printf("  beta=%-5g mean GA diversity %.4f (final best %.3f)\n",
			beta, numeric.Mean(res.GADiversity), res.BestY)
	}
	c.printf("(paper shape: larger beta -> more diverse GA population)\n")
	return nil
}

func runTab42(c Config) error {
	f := synth.Ackley()
	d := c.synthDim()
	budget := c.aiboBudget()
	c.printf("Table 4.2 — algorithmic runtime (Ackley%d, %d evaluations)\n", d, budget)
	for _, m := range []struct {
		name string
		opts aibo.Options
	}{
		{"AIBO", fastAIBO(budget)},
		{"BO-grad", func() aibo.Options {
			o := fastAIBO(budget)
			o.Strategies = []aibo.Strategy{aibo.StratRandom}
			o.RawCandidates = 400
			o.TopN = 5
			return o
		}()},
	} {
		start := time.Now()
		if _, err := aibo.Minimize(f.Eval, boxFor(f, d), budget, m.opts, c.Seed); err != nil {
			return err
		}
		c.printf("  %-10s %v\n", m.name, time.Since(start).Round(time.Millisecond))
	}
	c.printf("(paper shape: AIBO's runtime is comparable to or lower than BO-grad's)\n")
	return nil
}
