// Package aibo implements Chapter 4's AIBO: Bayesian optimisation whose
// acquisition-function maximiser is initialised from the candidate
// generators of heuristic black-box optimisers (CMA-ES, GA) alongside random
// search, with a projected-gradient acquisition maximiser on top
// (Algorithm 1). The same loop with only the random strategy is the paper's
// BO-grad baseline; a trust-region variant (TuRBO-style) is provided as a
// high-dimensional BO baseline.
package aibo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/heuristic"
	"repro/internal/numeric"
)

// Strategy names an acquisition-maximiser initialisation source.
type Strategy string

// Built-in strategies.
const (
	StratRandom Strategy = "random"
	StratGA     Strategy = "ga"
	StratCMAES  Strategy = "cmaes"
)

// SelectionMode controls how the next query is chosen from the maximised
// candidates (Fig 4.3's AF-based / random / oracle comparison).
type SelectionMode int

// Selection modes.
const (
	SelectByAF SelectionMode = iota
	SelectRandom
	SelectOracle // evaluates every candidate (diagnostic only)
)

// Options configure the optimiser.
type Options struct {
	AF            acq.Kind
	Beta          float64 // UCB β_t
	InitSamples   int     // N: initial uniform design
	RawCandidates int     // k: raw points per strategy per iteration
	TopN          int     // n: maximiser restarts per strategy
	GradSteps     int     // projected-gradient ascent steps (0 = none)
	Strategies    []Strategy
	RefitEvery    int // refit GP hyperparameters every k iterations
	Selection     SelectionMode
	GPOpts        gp.Options
	// Workers bounds the parallelism of the surrogate fit, the batched
	// candidate screening, and the acquisition-maximiser restarts
	// (0 = all CPUs, 1 = serial). The optimisation trace is bit-identical
	// for every value; workers change only the wall-clock. When
	// GPOpts.Workers is zero it inherits this bound.
	Workers int
}

// Fixed settings of the maximiser and its strategies (§4.3.2).
const (
	gradLR   = 0.03 // projected-gradient ascent step size
	gaPop    = 50   // GA population
	cmaSigma = 0.2  // CMA-ES σ0
)

// DefaultOptions mirror §4.3.2: UCB1.96, N=50, k=500, n=1, all three
// strategies (GA population gaPop, CMA-ES σ0 cmaSigma).
func DefaultOptions() Options {
	return Options{
		AF: acq.UCB, Beta: 1.96, InitSamples: 50, RawCandidates: 500, TopN: 1,
		GradSteps: 20, Strategies: []Strategy{StratCMAES, StratGA, StratRandom},
		RefitEvery: 1, GPOpts: gp.DefaultOptions(),
	}
}

// IterDiag records per-iteration per-strategy diagnostics (for the Fig
// 4.8-4.10 analyses: which strategy yields the highest AF value, lowest
// posterior mean, highest posterior variance).
type IterDiag struct {
	AF    map[Strategy]float64
	Mu    map[Strategy]float64
	Sigma map[Strategy]float64
	// Winner is the strategy whose candidate was selected.
	Winner Strategy
}

// Result is the optimisation outcome.
type Result struct {
	BestX     []float64
	BestY     float64
	History   []float64 // objective value per evaluation, in order
	BestTrace []float64 // best-so-far per evaluation
	Diags     []IterDiag
	// GADiversity traces the GA population diversity per iteration
	// (Fig 4.15).
	GADiversity []float64
}

// Minimize runs BO for `budget` objective evaluations (including the initial
// design).
func Minimize(f func([]float64) float64, bounds heuristic.Bounds, budget int, opts Options, seed int64) (*Result, error) {
	if budget <= opts.InitSamples {
		return nil, errors.New("aibo: budget must exceed the initial design size")
	}
	d := len(bounds)
	rng := rand.New(rand.NewSource(seed))
	res := &Result{BestY: math.Inf(1)}

	// Internally the model operates on [0,1]^d.
	toUnit := func(x []float64) []float64 {
		u := make([]float64, d)
		for i := range u {
			w := bounds[i][1] - bounds[i][0]
			if w <= 0 {
				w = 1
			}
			u[i] = (x[i] - bounds[i][0]) / w
		}
		return u
	}
	fromUnit := func(u []float64) []float64 {
		x := make([]float64, d)
		for i := range x {
			x[i] = bounds[i][0] + u[i]*(bounds[i][1]-bounds[i][0])
		}
		return x
	}
	unitBox := make(heuristic.Bounds, d)
	for i := range unitBox {
		unitBox[i] = [2]float64{0, 1}
	}

	var X [][]float64
	var Y []float64
	observe := func(u []float64) float64 {
		y := f(fromUnit(u))
		X = append(X, append([]float64(nil), u...))
		Y = append(Y, y)
		res.History = append(res.History, y)
		if y < res.BestY {
			res.BestY = y
			res.BestX = fromUnit(u)
		}
		res.BestTrace = append(res.BestTrace, res.BestY)
		return y
	}

	// Strategy portfolio.
	type strat struct {
		name Strategy
		opt  heuristic.Continuous
	}
	var strats []strat
	var gaRef *heuristic.GA
	for _, s := range opts.Strategies {
		switch s {
		case StratRandom:
			strats = append(strats, strat{s, &heuristic.RandomSearch{B: unitBox, Rng: rand.New(rand.NewSource(seed + 11))}})
		case StratGA:
			ga := heuristic.NewGA(unitBox, gaPop, rand.New(rand.NewSource(seed+22)))
			gaRef = ga
			strats = append(strats, strat{s, ga})
		case StratCMAES:
			strats = append(strats, strat{s, heuristic.NewCMAES(unitBox, cmaSigma, 0, rand.New(rand.NewSource(seed+33)))})
		default:
			return nil, fmt.Errorf("aibo: unknown strategy %q", s)
		}
	}

	// Initial design.
	for i := 0; i < opts.InitSamples; i++ {
		u := unitBox.Sample(rng)
		y := observe(u)
		for _, s := range strats {
			s.opt.Tell(u, y)
		}
	}
	// Seed CMA-ES mean at the incumbent best.
	for _, s := range strats {
		if c, ok := s.opt.(*heuristic.CMAES); ok {
			res.BestXUnit(func(u []float64) { c.SeedMean(u) }, toUnit)
		}
	}

	workers := numeric.Workers(opts.Workers)
	gpo := opts.GPOpts
	if gpo.Workers == 0 {
		gpo.Workers = workers
	}
	var model *gp.GP
	for it := 0; budget-len(Y) > 0; it++ {
		// 1. Bring the surrogate up to date.
		var err error
		model, _, err = gp.Update(model, X, Y, it, opts.RefitEvery, gpo)
		if err != nil {
			return nil, fmt.Errorf("aibo: GP fit failed: %w", err)
		}
		bestT := model.TransformY(res.BestY)
		cfg := acq.Config{Kind: opts.AF, Beta: opts.Beta, Best: bestT}

		// 2. Per-strategy: generate and screen; then maximise the surviving
		// restarts of every strategy in one fan-out.
		diag := IterDiag{AF: map[Strategy]float64{}, Mu: map[Strategy]float64{}, Sigma: map[Strategy]float64{}}
		type cand struct {
			x  []float64
			af float64
			s  Strategy
		}
		var startStrat []Strategy
		var starts [][]float64
		for _, s := range strats {
			raw := s.opt.Ask(opts.RawCandidates)
			for _, x := range screenTop(model, cfg, raw, opts.TopN) {
				startStrat = append(startStrat, s.name)
				starts = append(starts, x)
			}
		}
		if len(starts) == 0 {
			return nil, errors.New("aibo: no candidates generated")
		}
		// Every maximised restart joins the candidate pool (so the Fig 4.3
		// selection-mode comparison sees the whole pool); per-strategy
		// diagnostics track the best restart.
		maxX, maxV := maximizeBatch(model, cfg, unitBox, starts, opts.GradSteps, workers)
		finals := make([]cand, len(starts))
		for i := range starts {
			finals[i] = cand{x: maxX[i], af: maxV[i], s: startStrat[i]}
		}
		for _, s := range strats {
			bestLocal := cand{s: s.name, af: math.Inf(-1)}
			for _, c := range finals {
				if c.s == s.name && c.af > bestLocal.af {
					bestLocal = c
				}
			}
			if bestLocal.x != nil {
				mu, sig := model.PredictTransformed(bestLocal.x)
				diag.AF[s.name] = bestLocal.af
				diag.Mu[s.name] = mu
				diag.Sigma[s.name] = sig
			}
		}

		// 3. Select the next query point.
		sel := finals[0]
		switch opts.Selection {
		case SelectRandom:
			sel = finals[rng.Intn(len(finals))]
		case SelectOracle:
			bestV := math.Inf(1)
			for _, c := range finals {
				v := f(fromUnit(c.x)) // diagnostic oracle evaluation
				if v < bestV {
					bestV, sel = v, c
				}
			}
		default:
			for _, c := range finals[1:] {
				if c.af > sel.af {
					sel = c
				}
			}
		}
		diag.Winner = sel.s
		res.Diags = append(res.Diags, diag)

		// 4. Evaluate and update everything.
		y := observe(sel.x)
		for _, s := range strats {
			s.opt.Tell(sel.x, y)
		}
		if gaRef != nil {
			res.GADiversity = append(res.GADiversity, gaRef.PopulationDiversity())
		}
	}
	return res, nil
}

// BestXUnit is a small helper to apply fn to the incumbent in unit space.
func (r *Result) BestXUnit(fn func([]float64), toUnit func([]float64) []float64) {
	if r.BestX != nil {
		fn(toUnit(r.BestX))
	}
}

// maximizeFrom runs projected gradient ascent on the acquisition function
// from x0, returning the best point and its AF value.
func maximizeFrom(model *gp.GP, cfg acq.Config, box heuristic.Bounds, x0 []float64, steps int) ([]float64, float64) {
	x := append([]float64(nil), x0...)
	bestX := append([]float64(nil), x...)
	bestV := cfg.Value(model, x)
	cur := gradLR
	for s := 0; s < steps; s++ {
		_, grad := cfg.ValueGrad(model, x)
		moved := false
		for i := range x {
			nx := x[i] + cur*grad[i]
			if nx < box[i][0] {
				nx = box[i][0]
			}
			if nx > box[i][1] {
				nx = box[i][1]
			}
			if nx != x[i] {
				moved = true
			}
			x[i] = nx
		}
		if !moved {
			break
		}
		v := cfg.Value(model, x)
		if v > bestV {
			bestV = v
			copy(bestX, x)
		} else {
			cur *= 0.5
			if cur < 1e-4 {
				break
			}
		}
	}
	return bestX, bestV
}
