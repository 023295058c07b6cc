package aibo

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/heuristic"
	"repro/internal/numeric"
)

// TuRBOOptions configure the trust-region BO baseline (§3.2.1): local BO in
// a hyper-rectangle centred at the incumbent, expanding on success streaks
// and shrinking on failure streaks.
type TuRBOOptions struct {
	InitSamples  int
	Candidates   int // Thompson-style candidate pool per iteration
	GPOpts       gp.Options
	RefitEvery   int
	MaxGPHistory int // fit on the most recent points only (local model)
	// Workers bounds the surrogate's parallelism (0 = all CPUs, 1 = serial);
	// the trace is bit-identical for every value. When GPOpts.Workers is
	// zero it inherits this bound.
	Workers int
}

// The trust region's fixed shape, as in the reference implementation.
const (
	turboLenInit = 0.8       // side length at the start and after a restart
	turboLenMin  = 0.5 / 128 // 0.5·2⁻⁷: below it the region restarts
	turboLenMax  = 1.6
	turboSuccTol = 3    // successes in a row that double the side
	turboFailTol = 8    // failures in a row that halve it
	turboBeta    = 1.96 // UCB weight of the candidate scoring
)

// DefaultTuRBOOptions mirror the reference implementation's shape.
func DefaultTuRBOOptions() TuRBOOptions {
	return TuRBOOptions{
		InitSamples: 50, Candidates: 500,
		GPOpts: gp.DefaultOptions(), RefitEvery: 1, MaxGPHistory: 256,
	}
}

// TuRBOMinimize runs trust-region local BO.
func TuRBOMinimize(f func([]float64) float64, bounds heuristic.Bounds, budget int, opts TuRBOOptions, seed int64) (*Result, error) {
	if budget <= opts.InitSamples {
		return nil, errors.New("aibo: budget must exceed the initial design size")
	}
	d := len(bounds)
	rng := rand.New(rand.NewSource(seed))
	res := &Result{BestY: math.Inf(1)}
	unit := make(heuristic.Bounds, d)
	for i := range unit {
		unit[i] = [2]float64{0, 1}
	}
	fromUnit := func(u []float64) []float64 {
		x := make([]float64, d)
		for i := range x {
			x[i] = bounds[i][0] + u[i]*(bounds[i][1]-bounds[i][0])
		}
		return x
	}
	var X [][]float64
	var Y []float64
	var bestU []float64
	observe := func(u []float64) float64 {
		y := f(fromUnit(u))
		X = append(X, append([]float64(nil), u...))
		Y = append(Y, y)
		res.History = append(res.History, y)
		if y < res.BestY {
			res.BestY = y
			res.BestX = fromUnit(u)
			bestU = append([]float64(nil), u...)
		}
		res.BestTrace = append(res.BestTrace, res.BestY)
		return y
	}
	for i := 0; i < opts.InitSamples; i++ {
		observe(unit.Sample(rng))
	}

	gpo := opts.GPOpts
	if gpo.Workers == 0 {
		gpo.Workers = numeric.Workers(opts.Workers)
	}
	length := turboLenInit
	succ, fail := 0, 0
	var model *gp.GP
	for it := 0; len(Y) < budget; it++ {
		lo := len(X) - opts.MaxGPHistory
		if lo < 0 {
			lo = 0
		}
		var err error
		model, _, err = gp.Update(model, X[lo:], Y[lo:], it, opts.RefitEvery, gpo)
		if err != nil {
			return nil, err
		}
		cfg := acq.Config{Kind: acq.UCB, Beta: turboBeta}

		// Trust region around the incumbent, scaled per-dim by the model's
		// length scales (as in TuRBO).
		meanLS := 0.0
		for _, l := range model.LS {
			meanLS += l
		}
		meanLS /= float64(len(model.LS))
		// Draw the whole candidate pool first (the rng stream is the same as
		// scoring each draw immediately), then score it with one batched
		// posterior evaluation.
		cands := make([][]float64, opts.Candidates)
		for c := range cands {
			u := make([]float64, d)
			for i := 0; i < d; i++ {
				w := length * model.LS[i] / meanLS
				if w > turboLenMax {
					w = turboLenMax
				}
				lo2 := math.Max(0, bestU[i]-w/2)
				hi2 := math.Min(1, bestU[i]+w/2)
				u[i] = lo2 + rng.Float64()*(hi2-lo2)
			}
			cands[c] = u
		}
		mu := make([]float64, len(cands))
		sig := make([]float64, len(cands))
		model.PredictBatch(cands, mu, sig)
		bestX, bestV := []float64(nil), math.Inf(-1)
		for c, u := range cands {
			if v := cfg.FromPosterior(mu[c], sig[c]); v > bestV {
				bestV, bestX = v, u
			}
		}
		prevBest := res.BestY
		y := observe(bestX)
		if y < prevBest-1e-12 {
			succ++
			fail = 0
		} else {
			fail++
			succ = 0
		}
		if succ >= turboSuccTol {
			length = math.Min(2*length, turboLenMax)
			succ = 0
		}
		if fail >= turboFailTol {
			length /= 2
			fail = 0
			if length < turboLenMin {
				// Restart the trust region from scratch.
				length = turboLenInit
				bestU = unit.Sample(rng)
			}
		}
	}
	return res, nil
}
