// Package acq implements the acquisition functions of §2.1.2: analytic
// UCB/EI/PI over a GP posterior, their gradients for gradient-based
// maximisation, and CITROEN's coverage-aware acquisition for sparse
// statistics feature spaces (§5.3.4).
package acq

import (
	"math"

	"repro/internal/gp"
	"repro/internal/numeric"
)

// Kind selects the acquisition function.
type Kind int

// Acquisition function kinds.
const (
	UCB Kind = iota
	EI
	PI
)

// Config parameterises an acquisition function. All computations happen in
// the GP's transformed space and assume MINIMISATION of the objective.
type Config struct {
	Kind Kind
	// Beta is the UCB exploration weight (β_t).
	Beta float64
	// Best is the incumbent best objective value in transformed space
	// (required by EI and PI).
	Best float64
}

// Value computes the acquisition value at x under model g. Larger is better.
func (c Config) Value(g *gp.GP, x []float64) float64 {
	mu, sigma := g.PredictTransformed(x)
	return c.fromPosterior(mu, sigma)
}

// FromPosterior computes the acquisition value from a posterior mean/std in
// transformed space.
func (c Config) FromPosterior(mu, sigma float64) float64 {
	return c.fromPosterior(mu, sigma)
}

func (c Config) fromPosterior(mu, sigma float64) float64 {
	switch c.Kind {
	case UCB:
		// Minimisation: α(x) = -μ + √β σ.
		return -mu + math.Sqrt(c.Beta)*sigma
	case EI:
		if sigma < 1e-12 {
			return math.Max(c.Best-mu, 0)
		}
		z := (c.Best - mu) / sigma
		return (c.Best-mu)*numeric.NormalCDF(z) + sigma*numeric.NormalPDF(z)
	case PI:
		if sigma < 1e-12 {
			if mu < c.Best {
				return 1
			}
			return 0
		}
		return numeric.NormalCDF((c.Best - mu) / sigma)
	}
	return 0
}

// ValueGrad returns the acquisition value and its gradient at x.
func (c Config) ValueGrad(g *gp.GP, x []float64) (float64, []float64) {
	mu, dmu, sigma, dsigma := g.PredictGrad(x)
	d := len(x)
	grad := make([]float64, d)
	switch c.Kind {
	case UCB:
		sb := math.Sqrt(c.Beta)
		for i := 0; i < d; i++ {
			grad[i] = -dmu[i] + sb*dsigma[i]
		}
		return -mu + sb*sigma, grad
	case EI:
		if sigma < 1e-12 {
			return math.Max(c.Best-mu, 0), grad
		}
		z := (c.Best - mu) / sigma
		cdf, pdf := numeric.NormalCDF(z), numeric.NormalPDF(z)
		val := (c.Best-mu)*cdf + sigma*pdf
		// dEI = -cdf * dmu + pdf * dsigma
		for i := 0; i < d; i++ {
			grad[i] = -cdf*dmu[i] + pdf*dsigma[i]
		}
		return val, grad
	case PI:
		if sigma < 1e-12 {
			if mu < c.Best {
				return 1, grad
			}
			return 0, grad
		}
		z := (c.Best - mu) / sigma
		pdf := numeric.NormalPDF(z)
		for i := 0; i < d; i++ {
			grad[i] = pdf * (-dmu[i]/sigma - z*dsigma[i]/sigma)
		}
		return numeric.NormalCDF(z), grad
	}
	return 0, grad
}

// Coverage augments a base acquisition with CITROEN's coverage bonus
// (§5.3.4): candidates activating statistics counters never observed in the
// training data receive an exploration bonus proportional to the number of
// novel dimensions, because the GP's uncertainty estimate is unreliable
// there (Table 5.2's coverage issue); candidates whose feature vector
// duplicates an evaluated one are strongly penalised (they would re-measure
// a known binary).
type Coverage struct {
	Base Config
	// Gamma scales the novel-dimension bonus.
	Gamma float64
	// DupPenalty is subtracted for exact feature-vector duplicates.
	DupPenalty float64
}

// Score combines the base AF value with coverage terms. novelDims is the
// count of feature dimensions active in the candidate but never active in
// any observation; dup reports an exact duplicate feature vector.
func (cv Coverage) Score(base float64, novelDims int, dup bool) float64 {
	s := base + cv.Gamma*float64(novelDims)
	if dup {
		s -= cv.DupPenalty
	}
	return s
}
