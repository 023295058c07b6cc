// Package gp implements exact Gaussian-process regression from scratch:
// ARD RBF and Matérn-5/2 kernels, Cholesky-based inference, analytic
// log-marginal-likelihood gradients and Adam-based hyperparameter fitting
// with multiple restarts. It is the surrogate model for both the generic
// high-dimensional BO of Chapter 4 (AIBO) and CITROEN's compilation-
// statistics cost model (§5.3.3).
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
)

// KernelKind selects the covariance function.
type KernelKind int

// Supported kernels.
const (
	RBF KernelKind = iota
	Matern52
)

// Options configure fitting.
type Options struct {
	Kernel      KernelKind
	Restarts    int     // hyperparameter optimisation restarts
	AdamSteps   int     // gradient steps per restart
	LearnRate   float64 // Adam step size (on log-params)
	NoiseFloor  float64 // minimum noise variance
	NoiseCeil   float64 // maximum noise variance
	LSFloor     float64 // minimum length scale
	LSCeil      float64 // maximum length scale
	WarmLS      []float64
	WarmSigF    float64
	WarmNoise   float64
	Standardize bool // standardise Y internally (recommended)
	PowerTransf bool // Yeo-Johnson transform Y before standardising

	// Workers bounds the parallelism of fitting (hyperparameter restarts,
	// sharded kernel-matrix and LML-gradient evaluation) and of PredictBatch.
	// 0 or 1 runs serially. Results are bit-identical for every value: work
	// is partitioned into fixed-size shards whose boundaries depend only on
	// the problem size, per-shard partial results are reduced in shard order,
	// restart initialisations are drawn from the rng serially before the
	// fan-out, and the restart winner is chosen by (LML, restart index).
	Workers int
}

// DefaultOptions mirror the paper's settings (§4.3.2): Matérn-5/2 ARD,
// bounded length scales and noise, Yeo-Johnson output transform.
func DefaultOptions() Options {
	return Options{
		Kernel: Matern52, Restarts: 2, AdamSteps: 60, LearnRate: 0.08,
		NoiseFloor: 1e-6, NoiseCeil: 1e-2, LSFloor: 0.005, LSCeil: 20,
		Standardize: true, PowerTransf: true,
	}
}

// GP is a fitted Gaussian process.
type GP struct {
	Kind  KernelKind
	X     [][]float64
	LS    []float64 // per-dimension length scales
	SigF  float64   // signal variance
	Noise float64   // noise variance

	y      []float64 // transformed, standardised targets
	rawY   []float64 // original-unit targets (Append refits the transform)
	std    numeric.Standardizer
	lambda float64 // Yeo-Johnson lambda (1 => identity)
	usedYJ bool

	chol   *numeric.Matrix
	alpha  []float64
	lml    float64
	jitter float64     // diagonal jitter added by the last factorisation
	sx     [][]float64 // inputs pre-divided by LS (one division per element,
	// not per pair); every hot kernel path derives r2 from these, keeping
	// single, batched and appended evaluations bit-identical to each other

	opts            Options // fitting options, kept for Append
	workers         int
	refactorization int       // Append calls that fell back to a full refactorize
	scrK            []float64 // kernel-column scratch for Append
}

// Workers returns the worker bound the model was fitted with.
func (g *GP) Workers() int { return g.workers }

// Refactorized reports how many Append calls hit the jitter-recovery path
// (a full refactorisation instead of the O(n²) rank-1 extension).
func (g *GP) Refactorized() int { return g.refactorization }

// ErrNoData is returned when fitting with fewer than two points.
var ErrNoData = errors.New("gp: need at least 2 observations")

// Fit trains a GP on inputs X (rows) and targets Y.
func Fit(X [][]float64, Y []float64, opts Options, rng *rand.Rand) (*GP, error) {
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

	// Output transform.
	lambda := 1.0
	usedYJ := false
	ty := append([]float64(nil), Y...)
	if opts.PowerTransf {
		lambda = numeric.FitYeoJohnson(Y)
		usedYJ = true
		for i, v := range Y {
			ty[i] = numeric.YeoJohnson(v, lambda)
		}
	}
	std := numeric.Standardizer{Mu: 0, Sigma: 1}
	if opts.Standardize {
		std = numeric.FitStandardizer(ty)
		for i := range ty {
			ty[i] = std.Apply(ty[i])
		}
	}

	workers := opts.Workers
	g := &GP{
		// Capacity clipped: Append grows g.X into an array of its own, never
		// into spare capacity of the caller's.
		Kind: opts.Kernel, X: X[:n:n], y: ty, std: std, lambda: lambda, usedYJ: usedYJ,
		rawY: append([]float64(nil), Y...), opts: opts, workers: workers,
	}

	// Hyperparameter optimisation over log parameters.
	mkInit := func(r int) hypers {
		t := hypers{ls: make([]float64, d), sigf: 1, noise: 1e-3}
		for i := range t.ls {
			t.ls[i] = 0.5
		}
		if r == 0 && opts.WarmLS != nil && len(opts.WarmLS) == d {
			copy(t.ls, opts.WarmLS)
			if opts.WarmSigF > 0 {
				t.sigf = opts.WarmSigF
			}
			if opts.WarmNoise > 0 {
				t.noise = opts.WarmNoise
			}
		} else if r > 0 && rng != nil {
			for i := range t.ls {
				t.ls[i] = math.Exp(rng.NormFloat64()*0.7 - 0.7)
			}
			t.sigf = math.Exp(rng.NormFloat64() * 0.5)
		}
		return t
	}

	restarts := opts.Restarts
	if restarts < 1 {
		restarts = 1
	}
	// Draw every restart initialisation from the rng serially, in restart
	// order, so the stream of random numbers consumed is identical to a
	// serial fit; the optimisation itself is rng-free and fans out below.
	inits := make([]hypers, restarts)
	for r := range inits {
		inits[r] = mkInit(r)
	}
	type restartOut struct {
		t   hypers
		lml float64
		ok  bool
	}
	outs := make([]restartOut, restarts)
	// With at least one restart per worker every core already runs an Adam
	// loop of its own; forking the kernels inside it again only adds
	// goroutine wake-ups (DESIGN.md "Layer audit"). The bits do not depend on
	// the worker count either way.
	inner := workers
	if restarts >= workers {
		inner = 1
	}
	numeric.ParallelFor(workers, restarts, func(r int) {
		sc := newGradScratch(n, d)
		t := adamOptimize(g, inits[r], opts, sc, inner)
		lml, ok := g.computeLML(t.ls, t.sigf, t.noise, sc, inner)
		outs[r] = restartOut{t: t, lml: lml, ok: ok}
	})
	// Scanning the results in restart order with a strict > makes the winner
	// the (highest LML, lowest restart index) pair regardless of which
	// goroutine finished first.
	best := math.Inf(-1)
	var bestT hypers
	for _, o := range outs {
		if o.ok && o.lml > best {
			best = o.lml
			bestT = o.t
		}
	}
	if math.IsInf(best, -1) {
		// Fall back to defaults with inflated noise.
		bestT = mkInit(0)
		bestT.noise = opts.NoiseCeil
		lml, ok := g.computeLML(bestT.ls, bestT.sigf, bestT.noise, newGradScratch(n, d), workers)
		if !ok {
			return nil, errors.New("gp: covariance not positive definite")
		}
		best = lml
	}
	g.LS, g.SigF, g.Noise = bestT.ls, bestT.sigf, bestT.noise
	g.lml = best
	if err := g.factorize(); err != nil {
		return nil, err
	}
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

// kernelVal computes k(a,b).
func kernelVal(kind KernelKind, a, b, ls []float64, sigf float64) float64 {
	r2 := 0.0
	for i := range a {
		dx := (a[i] - b[i]) / ls[i]
		r2 += dx * dx
	}
	return kernelFromR2(kind, r2, sigf)
}

// kernelFromR2 evaluates the kernel given the scaled squared distance.
func kernelFromR2(kind KernelKind, r2, sigf float64) float64 {
	k, _ := kernelWithExp(kind, r2, sigf)
	return k
}

// kernelWithExp is kernelFromR2 that also hands back the exponential factor
// it multiplied in, which is the expensive half of the LML gradient's
// per-pair work (lmlGrad reads it back instead of calling math.Exp again).
func kernelWithExp(kind KernelKind, r2, sigf float64) (k, e float64) {
	switch kind {
	case RBF:
		e = math.Exp(-0.5 * r2)
		return sigf * e, e
	default: // Matern52
		r := math.Sqrt(r2)
		s5r := math.Sqrt(5) * r
		e = math.Exp(-s5r)
		return sigf * (1 + s5r + 5.0/3.0*r2) * e, e
	}
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
	kind := g.Kind
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
				k, e := kernelWithExp(kind, r2, sigf)
				ki[j] = k
				if r2row != nil {
					r2row[j], erow[j] = r2, e
				}
			}
		}
	})
	K.AddDiag(noise)
}

// computeLML evaluates the log marginal likelihood on sc's buffers.
func (g *GP) computeLML(ls []float64, sigf, noise float64, sc *gradScratch, workers int) (float64, bool) {
	scaleInputsInto(sc.sx, g.X, ls)
	g.buildKInto(sc.K, nil, nil, sc.sx, sigf, noise, workers)
	if _, err := numeric.CholeskyWithJitterInto(sc.L, sc.K, 1e-10, 6); err != nil {
		return 0, false
	}
	numeric.CholSolveInto(sc.L, g.y, sc.alpha)
	n := float64(len(g.y))
	lml := -0.5*numeric.Dot(g.y, sc.alpha) - 0.5*numeric.LogDetFromChol(sc.L) - 0.5*n*math.Log(2*math.Pi)
	if math.IsNaN(lml) || math.IsInf(lml, 0) {
		return 0, false
	}
	return lml, true
}

// gradScratch owns the buffers one lmlGrad or computeLML evaluation needs. A
// scratch is reused across the Adam steps of a single restart; each restart
// allocates its own, so concurrent restarts never share buffers.
type gradScratch struct {
	sx      [][]float64     // inputs divided by the step's length scales
	K       *numeric.Matrix // kernel matrix, lower triangle
	R2, E   *numeric.Matrix // per pair: scaled squared distance, exponential factor
	L, Kinv *numeric.Matrix // factor; lower triangle of K⁻¹
	alpha   []float64
	partial [][]float64 // per-shard partial gradients, reduced in shard order
	grad    []float64
}

func newGradScratch(n, d int) *gradScratch {
	sc := &gradScratch{
		sx:      newScaledRows(n, d),
		K:       numeric.NewMatrix(n, n),
		R2:      numeric.NewMatrix(n, n),
		E:       numeric.NewMatrix(n, n),
		L:       numeric.NewMatrix(n, n),
		Kinv:    numeric.NewMatrix(n, n),
		alpha:   make([]float64, n),
		grad:    make([]float64, d+2),
		partial: make([][]float64, numeric.NumShards(n)),
	}
	for s := range sc.partial {
		sc.partial[s] = make([]float64, d+2)
	}
	return sc
}

// lmlGrad returns the LML and its gradient w.r.t. (log ls_d..., log sigf,
// log noise). The returned slice aliases sc.grad and is valid until the next
// call with the same scratch. The pair loop reuses the squared distances and
// exponential factors that buildKInto already computed (sc.R2, sc.E) instead
// of re-deriving them per pair, and is sharded by rows with per-shard partial
// gradients that are reduced in fixed shard order — bit-identical for every
// worker count.
func (g *GP) lmlGrad(ls []float64, sigf, noise float64, sc *gradScratch, workers int) (float64, []float64, bool) {
	n := len(g.X)
	d := len(ls)
	sx := sc.sx
	scaleInputsInto(sx, g.X, ls)
	g.buildKInto(sc.K, sc.R2, sc.E, sx, sigf, noise, workers)
	if _, err := numeric.CholeskyWithJitterInto(sc.L, sc.K, 1e-10, 6); err != nil {
		return 0, nil, false
	}
	numeric.CholSolveInto(sc.L, g.y, sc.alpha)
	alpha := sc.alpha
	lml := -0.5*numeric.Dot(g.y, alpha) - 0.5*numeric.LogDetFromChol(sc.L) - 0.5*float64(n)*math.Log(2*math.Pi)
	if math.IsNaN(lml) {
		return 0, nil, false
	}
	// A = alpha alpha^T - K^{-1}; we need tr(A dK/dθ) terms over the lower
	// triangle, so that is all of K^{-1} that gets computed.
	numeric.CholInverseLowerInto(sc.L, sc.Kinv, workers)

	sqrt5 := math.Sqrt(5)
	kind := g.Kind
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
				e := erow[j]
				var kval, dkdr2 float64
				switch kind {
				case RBF:
					kval = sigf * e
					dkdr2 = -0.5 * kval
				default:
					r := math.Sqrt(r2)
					kval = sigf * (1 + sqrt5*r + 5.0/3.0*r2) * e
					// dk/dr2 = sigf * e * (-5/6)(1 + sqrt5 r)
					dkdr2 = -sigf * e * (5.0 / 6.0) * (1 + sqrt5*r)
				}
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

// adamOptimize runs Adam ascent on the LML over log-parameters.
func adamOptimize(g *GP, init hypers, opts Options, sc *gradScratch, workers int) hypers {
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
			theta[i] = numeric.Clamp(theta[i], math.Log(opts.LSFloor), math.Log(opts.LSCeil))
		}
		theta[d] = numeric.Clamp(theta[d], math.Log(1e-3), math.Log(1e3))
		theta[d+1] = numeric.Clamp(theta[d+1], math.Log(opts.NoiseFloor), math.Log(opts.NoiseCeil))
	}
	clamp()
	for step := 1; step <= opts.AdamSteps; step++ {
		for i := range curLS {
			curLS[i] = math.Exp(theta[i])
		}
		_, grad, ok := g.lmlGrad(curLS, math.Exp(theta[d]), math.Exp(theta[d+1]), sc, workers)
		if !ok {
			break
		}
		for i := range theta {
			m[i] = beta1*m[i] + (1-beta1)*grad[i]
			v[i] = beta2*v[i] + (1-beta2)*grad[i]*grad[i]
			mh := m[i] / (1 - math.Pow(beta1, float64(step)))
			vh := v[i] / (1 - math.Pow(beta2, float64(step)))
			theta[i] += opts.LearnRate * mh / (math.Sqrt(vh) + eps)
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

// factorize caches the Cholesky factor and alpha for prediction, recording
// the jitter that was needed so Append can keep the bordered diagonal
// consistent with the retained rows.
func (g *GP) factorize() error {
	n := len(g.X)
	K := numeric.NewMatrix(n, n)
	g.sx = scaleInputs(g.X, g.LS)
	g.buildKInto(K, nil, nil, g.sx, g.SigF, g.Noise, g.workers)
	L, added, err := numeric.CholeskyWithJitter(K, 1e-10, 8)
	if err != nil {
		return err
	}
	g.chol = L
	g.jitter = added
	g.alpha = numeric.CholSolve(L, g.y)
	return nil
}

// Predict returns the posterior mean and standard deviation at x, in the
// ORIGINAL output units (transforms are inverted for the mean; the std is
// scaled back through the standardiser but remains in transformed space for
// the Yeo-Johnson case, which is how acquisition values are computed in
// practice — consistently for all candidates).
func (g *GP) Predict(x []float64) (mu, sigma float64) {
	mu, sigma = g.predictTransformed(x)
	return g.InvertMean(mu), g.std.InvertScale(sigma)
}

// PredictTransformed returns the posterior in the standardised (model)
// space; acquisition functions operate here.
func (g *GP) PredictTransformed(x []float64) (mu, sigma float64) {
	return g.predictTransformed(x)
}

// PredictScratch owns the buffers an allocation-free prediction needs. A
// scratch may be reused across calls but never shared between goroutines.
type PredictScratch struct {
	k, v, sq []float64
}

// PredictInto is Predict with caller-owned scratch: after the first call with
// a given scratch, no allocations happen on this path.
func (g *GP) PredictInto(x []float64, s *PredictScratch) (mu, sigma float64) {
	mu, sigma = g.PredictTransformedInto(x, s)
	return g.InvertMean(mu), g.std.InvertScale(sigma)
}

// PredictTransformedInto is PredictTransformed with caller-owned scratch.
func (g *GP) PredictTransformedInto(x []float64, s *PredictScratch) (mu, sigma float64) {
	n := len(g.X)
	s.k = numeric.GrowFloats(s.k, n)
	s.v = numeric.GrowFloats(s.v, n)
	s.sq = numeric.GrowFloats(s.sq, len(x))
	for dd := range x {
		s.sq[dd] = x[dd] / g.LS[dd]
	}
	k := s.k
	for i := 0; i < n; i++ {
		k[i] = kernelFromR2(g.Kind, scaledR2(s.sq, g.sx[i]), g.SigF)
	}
	mu = numeric.Dot(k, g.alpha)
	numeric.SolveLowerInto(g.chol, k, s.v)
	varf := g.SigF + g.Noise - numeric.Dot(s.v, s.v)
	if varf < 1e-12 {
		varf = 1e-12
	}
	return mu, math.Sqrt(varf)
}

func (g *GP) predictTransformed(x []float64) (float64, float64) {
	var s PredictScratch
	return g.PredictTransformedInto(x, &s)
}

// TransformY maps an original-space observation into the model space (for
// comparing with PredictTransformed outputs, e.g. the incumbent best).
func (g *GP) TransformY(y float64) float64 {
	t := y
	if g.usedYJ {
		t = numeric.YeoJohnson(y, g.lambda)
	}
	return g.std.Apply(t)
}

// InvertMean maps a model-space mean back to original units.
func (g *GP) InvertMean(mu float64) float64 {
	t := g.std.Invert(mu)
	if g.usedYJ {
		t = numeric.YeoJohnsonInverse(t, g.lambda)
	}
	return t
}

// PredictGrad returns the transformed-space posterior mean/std at x plus
// their gradients w.r.t. x (for gradient-based acquisition maximisation).
func (g *GP) PredictGrad(x []float64) (mu float64, dmu []float64, sigma float64, dsigma []float64) {
	n := len(g.X)
	d := len(x)
	k := make([]float64, n)
	dk := make([][]float64, n) // dk[i][dim]
	sqrt5 := math.Sqrt(5)
	for i := 0; i < n; i++ {
		r2 := 0.0
		for dd := 0; dd < d; dd++ {
			dx := (x[dd] - g.X[i][dd]) / g.LS[dd]
			r2 += dx * dx
		}
		var kv, dkdr2 float64
		switch g.Kind {
		case RBF:
			e := math.Exp(-0.5 * r2)
			kv = g.SigF * e
			dkdr2 = -0.5 * kv
		default:
			r := math.Sqrt(r2)
			e := math.Exp(-sqrt5 * r)
			kv = g.SigF * (1 + sqrt5*r + 5.0/3.0*r2) * e
			dkdr2 = -g.SigF * e * (5.0 / 6.0) * (1 + sqrt5*r)
		}
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

// PredictJoint returns the joint posterior (mean vector and covariance) of q
// candidate points in transformed space, for Monte-Carlo batch acquisition.
func (g *GP) PredictJoint(xs [][]float64) ([]float64, *numeric.Matrix) {
	q := len(xs)
	n := len(g.X)
	mu := make([]float64, q)
	vs := make([][]float64, q)
	for a := 0; a < q; a++ {
		k := make([]float64, n)
		for i := 0; i < n; i++ {
			k[i] = kernelVal(g.Kind, xs[a], g.X[i], g.LS, g.SigF)
		}
		mu[a] = numeric.Dot(k, g.alpha)
		vs[a] = numeric.SolveLower(g.chol, k)
	}
	cov := numeric.NewMatrix(q, q)
	for a := 0; a < q; a++ {
		for b := 0; b <= a; b++ {
			prior := kernelVal(g.Kind, xs[a], xs[b], g.LS, g.SigF)
			v := prior - numeric.Dot(vs[a], vs[b])
			if a == b {
				v += g.Noise
				if v < 1e-12 {
					v = 1e-12
				}
			}
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return mu, cov
}
