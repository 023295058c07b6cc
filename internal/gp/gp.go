// Package gp implements exact Gaussian-process regression from scratch:
// an ARD Matérn-5/2 kernel, Cholesky-based inference, analytic
// log-marginal-likelihood gradients and Adam-based hyperparameter fitting.
// It is the surrogate model for both the generic high-dimensional BO of
// Chapter 4 (AIBO) and CITROEN's compilation-statistics cost model (§5.3.3).
package gp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Options configure fitting. The model itself is fixed (§4.3.2): an ARD
// Matérn-5/2 kernel over targets that are always Yeo-Johnson transformed and
// then standardised.
type Options struct {
	AdamSteps  int     // gradient steps of the hyperparameter fit
	NoiseFloor float64 // minimum noise variance
	NoiseCeil  float64 // maximum noise variance

	// Workers bounds the parallelism of fitting (sharded kernel-matrix and
	// LML-gradient evaluation) and of PredictBatch. 0 or 1 runs serially.
	// Results are bit-identical for every value: work is partitioned into
	// fixed-size shards whose boundaries depend only on the problem size, and
	// per-shard partial results are reduced in shard order.
	Workers int
}

// learnRate is Adam's step size on the log-parameters.
const learnRate = 0.08

// The length-scale bounds of the hyperparameter fit (§4.3.2).
const (
	lsFloor = 0.005
	lsCeil  = 20.0
)

// DefaultOptions mirror the paper's settings (§4.3.2): bounded noise; the
// length scales are bounded by lsFloor and lsCeil.
func DefaultOptions() Options {
	return Options{
		AdamSteps:  40,
		NoiseFloor: 1e-6, NoiseCeil: 1e-2,
	}
}

// GP is a fitted Gaussian process.
type GP struct {
	X     [][]float64
	LS    []float64 // per-dimension length scales
	SigF  float64   // signal variance
	Noise float64   // noise variance

	y      []float64 // transformed, standardised targets
	rawY   []float64 // original-unit targets (Append refits the transform)
	std    numeric.Standardizer
	lambda float64 // Yeo-Johnson lambda

	chol   *numeric.Matrix
	alpha  []float64
	lml    float64
	jitter float64     // diagonal jitter added by the last factorisation
	sx     [][]float64 // inputs pre-divided by LS (one division per element,
	// not per pair); every hot kernel path derives r2 from these, keeping
	// single, batched and appended evaluations bit-identical to each other

	workers         int
	refactorization int       // Append calls that fell back to a full refactorisation
	scrK            []float64 // kernel-column scratch for Append
}

// Refactorized reports how many Append calls hit the jitter-recovery path
// (a full refactorisation instead of the O(n²) rank-1 extension).
func (g *GP) Refactorized() int { return g.refactorization }

// ErrNoData is returned when fitting with fewer than two points.
var ErrNoData = errors.New("gp: need at least 2 observations")

// Fit trains a GP on inputs X (rows) and targets Y.
func Fit(X [][]float64, Y []float64, opts Options) (*GP, error) {
	return fit(X, Y, opts, nil)
}

// fit is Fit with the hyperparameter search started from warm's
// hyperparameters instead of the defaults, when warm is non-nil and has X's
// width.
func fit(X [][]float64, Y []float64, opts Options, warm *GP) (*GP, error) {
	n := len(X)
	if n < 2 || len(Y) != n {
		return nil, ErrNoData
	}
	d := len(X[0])
	for _, x := range X {
		if len(x) != d {
			return nil, fmt.Errorf("gp: ragged input rows")
		}
	}

	workers := opts.Workers
	g := &GP{
		// Capacity clipped: Append grows g.X into an array of its own, never
		// into spare capacity of the caller's.
		X: X[:n:n], rawY: append([]float64(nil), Y...), workers: workers,
	}
	g.refreshTargets()

	// Hyperparameter optimisation over log parameters: one Adam run from
	// warm's hyperparameters, or from the defaults.
	start := hypers{ls: make([]float64, d), sigf: 1, noise: 1e-3}
	if warm != nil && len(warm.LS) == d {
		copy(start.ls, warm.LS)
		start.sigf, start.noise = warm.SigF, warm.Noise
	} else {
		for i := range start.ls {
			start.ls[i] = 0.5
		}
	}
	// Adam's steps and the closing evaluation share one posterior, and the
	// model keeps the closing evaluation's. Its sx rows are capped
	// (newScaledRows), so Append's appends never write into them.
	p := newPosterior(n, d)
	t := adamOptimize(g, start, opts, p, workers)
	// The closing evaluation rejects an LML that is NaN or ±Inf.
	closing := func(t hypers) (float64, bool) {
		lml, err := g.evaluate(p, t.ls, t.sigf, t.noise, nil, nil, fitTries, workers)
		return lml, err == nil && !math.IsNaN(lml) && !math.IsInf(lml, 0)
	}
	lml, ok := closing(t)
	if !ok {
		// Fall back to the start point with inflated noise.
		t = start
		t.noise = opts.NoiseCeil
		if lml, ok = closing(t); !ok {
			return nil, errors.New("gp: covariance not positive definite")
		}
	}
	g.LS, g.SigF, g.Noise = t.ls, t.sigf, t.noise
	g.lml = lml
	g.sx, g.chol, g.alpha, g.jitter = p.sx, p.L, p.alpha, p.jitter
	return g, nil
}

// hypers is one point in hyperparameter space.
type hypers struct {
	ls    []float64
	sigf  float64
	noise float64
}

// LML returns the log marginal likelihood at the fitted hyperparameters.
func (g *GP) LML() float64 { return g.lml }

// expFactor is the Matérn-5/2 kernel's exponential factor exp(−√5·r) at
// scaled squared distance r2 = r², the expensive half of a kernel evaluation.
func expFactor(r2 float64) float64 {
	return math.Exp(-(math.Sqrt(5) * math.Sqrt(r2)))
}

// matern52 is the one Matérn-5/2 kernel evaluation: at scaled squared
// distance r2 = r², with e = expFactor(r2), it returns
//
//	k = sigf·(1 + √5·r + 5/3·r²)·e,  dk/dr² = −sigf·e·5/6·(1 + √5·r).
//
// Every kernel site calls it and derives r2 its own way. The factor comes in
// from outside so lmlGrad can read back the ones buildKInto stored instead of
// calling math.Exp per pair again; inlined at a site that discards dk/dr²,
// that half compiles away.
func matern52(r2, e, sigf float64) (k, dkdr2 float64) {
	s5r := math.Sqrt(5) * math.Sqrt(r2)
	return sigf * (1 + s5r + 5.0/3.0*r2) * e, -sigf * e * (5.0 / 6.0) * (1 + s5r)
}

// kernelFromR2 is the kernel at scaled squared distance r2.
func kernelFromR2(r2, sigf float64) float64 {
	k, _ := matern52(r2, expFactor(r2), sigf)
	return k
}

// newScaledRows carves n rows of d floats out of one allocation, the shape
// scaleInputsInto fills.
func newScaledRows(n, d int) [][]float64 {
	out := make([][]float64, n)
	flat := make([]float64, n*d)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// scaleInputsInto divides every coordinate of the rows by the matching length
// scale, one division per element instead of one per pair in the kernel
// loops downstream, into dst (len(rows) rows of len(ls) floats).
func scaleInputsInto(dst, rows [][]float64, ls []float64) {
	for i, x := range rows {
		sx := dst[i]
		for dd := range sx {
			sx[dd] = x[dd] / ls[dd]
		}
	}
}

// scaleInputs is scaleInputsInto on a fresh buffer.
func scaleInputs(rows [][]float64, ls []float64) [][]float64 {
	out := newScaledRows(len(rows), len(ls))
	scaleInputsInto(out, rows, ls)
	return out
}

// scaledR2 returns the squared distance between two pre-scaled points.
func scaledR2(sa, sb []float64) float64 {
	r2 := 0.0
	for dd := range sa {
		dx := sa[dd] - sb[dd]
		r2 += dx * dx
	}
	return r2
}

// scaledR2x4 is scaledR2 of sa against four points at once: four independent
// chains, each adding its squares in the same ascending-dimension order, so
// the loop is not bound by the latency of one addition.
func scaledR2x4(sa, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64) {
	b0, b1, b2, b3 = b0[:len(sa)], b1[:len(sa)], b2[:len(sa)], b3[:len(sa)]
	for dd, a := range sa {
		d0, d1, d2, d3 := a-b0[dd], a-b1[dd], a-b2[dd], a-b3[dd]
		r0 += d0 * d0
		r1 += d1 * d1
		r2 += d2 * d2
		r3 += d3 * d3
	}
	return r0, r1, r2, r3
}

// buildKInto fills the lower triangle of K (diagonal included, plus noise)
// with the kernel matrix for the training inputs; the strict upper triangle
// is left alone, since every consumer — CholeskyInto and its jitter wrappers
// — reads the lower one only. When r2m and em are non-nil it also stores each
// pair's scaled squared distance and exponential factor there, so the
// gradient loop reuses them instead of recomputing every pair. Rows are
// processed in fixed-size shards and each shard writes only its own rows, so
// the result is bit-identical for every worker count.
func (g *GP) buildKInto(K, r2m, em *numeric.Matrix, sx [][]float64, sigf, noise float64, workers int) {
	n := len(g.X)
	numeric.ParallelFor(workers, numeric.NumShards(n), func(s int) {
		lo, hi := numeric.ShardBounds(n, s)
		for i := lo; i < hi; i++ {
			sxi := sx[i]
			ki := K.Row(i)[:i+1]
			var r2row, erow []float64
			if r2m != nil {
				r2row, erow = r2m.Row(i)[:i+1], em.Row(i)[:i+1]
			}
			// Squared distances first, parked in K's row, then the kernel
			// over the row.
			j := 0
			for ; j+3 <= i; j += 4 {
				ki[j], ki[j+1], ki[j+2], ki[j+3] = scaledR2x4(sxi, sx[j], sx[j+1], sx[j+2], sx[j+3])
			}
			for ; j <= i; j++ {
				ki[j] = scaledR2(sxi, sx[j])
			}
			for j, r2 := range ki {
				e := expFactor(r2)
				ki[j], _ = matern52(r2, e, sigf)
				if r2row != nil {
					r2row[j], erow[j] = r2, e
				}
			}
		}
	})
	K.AddDiag(noise)
}

// Jitter tries of a factorisation: a fit's evaluations stop after fitTries,
// Append's recovery from a failed rank-1 extension after appendTries.
const (
	fitTries    = 6
	appendTries = 8
)

// posterior holds the buffers of one posterior evaluation. A fit reuses one
// across its Adam steps and closing evaluation, and the model keeps the last.
type posterior struct {
	sx     [][]float64     // inputs divided by the length scales
	K      *numeric.Matrix // kernel matrix, lower triangle; scratch
	L      *numeric.Matrix // its factor
	alpha  []float64
	jitter float64 // diagonal jitter the factorisation added
}

func newPosterior(n, d int) *posterior {
	return &posterior{
		sx:    newScaledRows(n, d),
		K:     numeric.NewMatrix(n, n),
		L:     numeric.NewMatrix(n, n),
		alpha: make([]float64, n),
	}
}

// evaluate is the one posterior evaluation: into p it scales the inputs by
// ls, builds K (and each pair's r² and exponential factor into non-nil r2m
// and em), factors K with up to tries jitter retries and solves alpha; it
// returns the LML. Which LML values to reject is the caller's call.
func (g *GP) evaluate(p *posterior, ls []float64, sigf, noise float64, r2m, em *numeric.Matrix, tries, workers int) (float64, error) {
	scaleInputsInto(p.sx, g.X, ls)
	g.buildKInto(p.K, r2m, em, p.sx, sigf, noise, workers)
	var err error
	if p.jitter, err = numeric.CholeskyWithJitterInto(p.L, p.K, 1e-10, tries); err != nil {
		return 0, err
	}
	numeric.CholSolveInto(p.L, g.y, p.alpha)
	return g.logML(p.L, p.alpha), nil
}

// logML is the log marginal likelihood of the targets under factor L with
// alpha = K⁻¹y.
func (g *GP) logML(L *numeric.Matrix, alpha []float64) float64 {
	n := float64(len(g.y))
	return -0.5*numeric.Dot(g.y, alpha) - 0.5*numeric.LogDetFromChol(L) - 0.5*n*math.Log(2*math.Pi)
}

// gradScratch owns the buffers lmlGrad needs beyond a posterior evaluation's.
// adamOptimize allocates one when it takes a step, and reuses it across its
// steps.
type gradScratch struct {
	R2, E   *numeric.Matrix // per pair: scaled squared distance, exponential factor
	Kinv    *numeric.Matrix // lower triangle of K⁻¹
	partial [][]float64     // per-shard partial gradients, reduced in shard order
	grad    []float64
}

func newGradScratch(n, d int) *gradScratch {
	sc := &gradScratch{
		R2:      numeric.NewMatrix(n, n),
		E:       numeric.NewMatrix(n, n),
		Kinv:    numeric.NewMatrix(n, n),
		grad:    make([]float64, d+2),
		partial: make([][]float64, numeric.NumShards(n)),
	}
	for s := range sc.partial {
		sc.partial[s] = make([]float64, d+2)
	}
	return sc
}

// lmlGrad returns the LML and its gradient w.r.t. (log ls_d..., log sigf,
// log noise), evaluating the posterior into p. The returned slice aliases
// sc.grad and is valid until the next call with the same scratch. The pair
// loop reuses the squared distances and exponential factors that buildKInto
// already computed (sc.R2, sc.E) instead of re-deriving them per pair, and is
// sharded by rows with per-shard partial gradients that are reduced in fixed
// shard order — bit-identical for every worker count.
func (g *GP) lmlGrad(ls []float64, sigf, noise float64, p *posterior, sc *gradScratch, workers int) (float64, []float64, bool) {
	n := len(g.X)
	d := len(ls)
	lml, err := g.evaluate(p, ls, sigf, noise, sc.R2, sc.E, fitTries, workers)
	if err != nil || math.IsNaN(lml) {
		return 0, nil, false
	}
	sx, alpha := p.sx, p.alpha
	// A = alpha alpha^T - K^{-1}; we need tr(A dK/dθ) terms over the lower
	// triangle, so that is all of K^{-1} that gets computed.
	numeric.CholInverseLowerInto(p.L, sc.Kinv, workers)

	shards := numeric.NumShards(n)
	numeric.ParallelFor(workers, shards, func(s int) {
		part := sc.partial[s]
		for c := range part {
			part[c] = 0
		}
		pls := part[:d]
		lo, hi := numeric.ShardBounds(n, s)
		for i := lo; i < hi; i++ {
			sxi := sx[i][:d]
			ai := alpha[i]
			r2row := sc.R2.Row(i)[:i+1]
			erow := sc.E.Row(i)[:i+1]
			kinvRow := sc.Kinv.Row(i)[:i+1]
			for j, r2 := range r2row {
				aij := ai*alpha[j] - kinvRow[j]
				w := 1.0
				if i != j {
					w = 2.0 // symmetric off-diagonal contributes twice
				}
				c := 0.5 * w * aij
				kval, dkdr2 := matern52(r2, erow[j], sigf)
				sxj := sx[j][:d]
				// d r2 / d log ls_dd = -2 (dx_dd)^2
				for dd := range pls {
					dx := sxi[dd] - sxj[dd]
					dK := dkdr2 * (-2 * dx * dx)
					pls[dd] += c * dK
				}
				// d k / d log sigf = k
				part[d] += c * kval
				if i == j {
					// d K / d log noise = noise on the diagonal
					part[d+1] += 0.5 * aij * noise
				}
			}
		}
	})
	grad := sc.grad
	for c := range grad {
		grad[c] = 0
	}
	for s := 0; s < shards; s++ {
		for c := range grad {
			grad[c] += sc.partial[s][c]
		}
	}
	return lml, grad, true
}

// adamOptimize runs Adam ascent on the LML over log-parameters, evaluating
// each step's posterior into p.
func adamOptimize(g *GP, init hypers, opts Options, p *posterior, workers int) hypers {
	d := len(init.ls)
	theta := make([]float64, d+2)
	for i, v := range init.ls {
		theta[i] = math.Log(v)
	}
	theta[d] = math.Log(init.sigf)
	theta[d+1] = math.Log(init.noise)

	m := make([]float64, d+2)
	v := make([]float64, d+2)
	curLS := make([]float64, d)
	beta1, beta2, eps := 0.9, 0.999, 1e-8
	clamp := func() {
		for i := 0; i < d; i++ {
			theta[i] = numeric.Clamp(theta[i], math.Log(lsFloor), math.Log(lsCeil))
		}
		theta[d] = numeric.Clamp(theta[d], math.Log(1e-3), math.Log(1e3))
		theta[d+1] = numeric.Clamp(theta[d+1], math.Log(opts.NoiseFloor), math.Log(opts.NoiseCeil))
	}
	clamp()
	var sc *gradScratch // a frozen refit takes no step and allocates none
	if opts.AdamSteps > 0 {
		sc = newGradScratch(len(g.X), d)
	}
	for step := 1; step <= opts.AdamSteps; step++ {
		for i := range curLS {
			curLS[i] = math.Exp(theta[i])
		}
		_, grad, ok := g.lmlGrad(curLS, math.Exp(theta[d]), math.Exp(theta[d+1]), p, sc, workers)
		if !ok {
			break
		}
		for i := range theta {
			m[i] = beta1*m[i] + (1-beta1)*grad[i]
			v[i] = beta2*v[i] + (1-beta2)*grad[i]*grad[i]
			mh := m[i] / (1 - math.Pow(beta1, float64(step)))
			vh := v[i] / (1 - math.Pow(beta2, float64(step)))
			theta[i] += learnRate * mh / (math.Sqrt(vh) + eps)
		}
		clamp()
	}
	out := hypers{ls: make([]float64, d)}
	for i := range out.ls {
		out.ls[i] = math.Exp(theta[i])
	}
	out.sigf = math.Exp(theta[d])
	out.noise = math.Exp(theta[d+1])
	return out
}

// Predict returns the posterior mean and standard deviation at x, in the
// ORIGINAL output units (both transforms are inverted for the mean; the std
// is scaled back through the standardiser but remains in Yeo-Johnson space,
// which is how acquisition values are computed in practice — consistently
// for all candidates).
func (g *GP) Predict(x []float64) (mu, sigma float64) {
	mu, sigma = g.PredictTransformed(x)
	return g.InvertMean(mu), g.std.InvertScale(sigma)
}

// PredictTransformed returns the posterior in the standardised (model)
// space; acquisition functions operate here.
func (g *GP) PredictTransformed(x []float64) (mu, sigma float64) {
	n := len(g.X)
	sq := make([]float64, len(x))
	for dd := range x {
		sq[dd] = x[dd] / g.LS[dd]
	}
	k := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = kernelFromR2(scaledR2(sq, g.sx[i]), g.SigF)
	}
	mu = numeric.Dot(k, g.alpha)
	v := numeric.SolveLower(g.chol, k)
	varf := g.SigF + g.Noise - numeric.Dot(v, v)
	if varf < 1e-12 {
		varf = 1e-12
	}
	return mu, math.Sqrt(varf)
}

// TransformY maps an original-space observation into the model space (for
// comparing with PredictTransformed outputs, e.g. the incumbent best).
func (g *GP) TransformY(y float64) float64 {
	return g.std.Apply(numeric.YeoJohnson(y, g.lambda))
}

// InvertMean maps a model-space mean back to original units.
func (g *GP) InvertMean(mu float64) float64 {
	return numeric.YeoJohnsonInverse(g.std.Invert(mu), g.lambda)
}

// PredictGrad returns the transformed-space posterior mean/std at x plus
// their gradients w.r.t. x (for gradient-based acquisition maximisation).
func (g *GP) PredictGrad(x []float64) (mu float64, dmu []float64, sigma float64, dsigma []float64) {
	n := len(g.X)
	d := len(x)
	k := make([]float64, n)
	dk := make([][]float64, n) // dk[i][dim]
	for i := 0; i < n; i++ {
		r2 := 0.0
		for dd := 0; dd < d; dd++ {
			dx := (x[dd] - g.X[i][dd]) / g.LS[dd]
			r2 += dx * dx
		}
		kv, dkdr2 := matern52(r2, expFactor(r2), g.SigF)
		k[i] = kv
		row := make([]float64, d)
		for dd := 0; dd < d; dd++ {
			// d r2/d x_dd = 2 (x_dd - xi_dd)/ls^2
			row[dd] = dkdr2 * 2 * (x[dd] - g.X[i][dd]) / (g.LS[dd] * g.LS[dd])
		}
		dk[i] = row
	}
	mu = numeric.Dot(k, g.alpha)
	dmu = make([]float64, d)
	for i := 0; i < n; i++ {
		numeric.AxPy(g.alpha[i], dk[i], dmu)
	}
	v := numeric.SolveLower(g.chol, k)
	varf := g.SigF + g.Noise - numeric.Dot(v, v)
	if varf < 1e-12 {
		varf = 1e-12
	}
	sigma = math.Sqrt(varf)
	// dvar/dx = -2 k^T K^-1 dk => use w = K^-1 k.
	w := numeric.SolveUpperT(g.chol, v)
	dsigma = make([]float64, d)
	for i := 0; i < n; i++ {
		numeric.AxPy(-w[i], dk[i], dsigma)
	}
	numeric.Scale(dsigma, 1/sigma)
	return mu, dmu, sigma, dsigma
}
