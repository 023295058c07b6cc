package gp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Append extends the fitted GP with one observation in O(n²) instead of the
// O(n³) a full refit costs. Hyperparameters are kept verbatim; the Cholesky
// factor gains one bordered row (numeric.CholUpdateAppend), the output
// transform is refit over the full raw-target history exactly as Fit would
// (both the Yeo-Johnson lambda and the standardiser depend on every
// observation, so freezing them would drift away from a refit), and alpha,
// the log-determinant and the LML are refreshed against the new factor.
//
// When the bordered matrix is too ill-conditioned for the rank-1 extension —
// e.g. a near-duplicate input under tiny noise drives the Schur complement
// to (numerically) zero — Append falls back to a full jittered
// refactorisation; Refactorized counts those recoveries.
//
// Like Fit, Append keeps the row x itself, which Update relies on to tell
// the model's rows from a new training set. It consumes no random numbers;
// Update calls it on non-refit iterations that add one row.
func (g *GP) Append(x []float64, y float64) error {
	if g.chol == nil {
		return errors.New("gp: Append on an unfitted model")
	}
	d := len(g.LS)
	if len(x) != d {
		return fmt.Errorf("gp: Append input has %d dims, model has %d", len(x), d)
	}
	sxc := make([]float64, d)
	for dd := range sxc {
		sxc[dd] = x[dd] / g.LS[dd]
	}
	g.X = append(g.X, x)
	g.sx = append(g.sx, sxc)
	g.rawY = append(g.rawY, y)
	n := len(g.X)

	g.refreshTargets()

	// Kernel column against the retained inputs, plus the new diagonal. The
	// jitter the last factorisation added must carry over so the appended
	// row is consistent with the retained ones.
	g.scrK = numeric.GrowFloats(g.scrK, n-1)
	k := g.scrK
	for i := 0; i < n-1; i++ {
		k[i] = kernelFromR2(scaledR2(sxc, g.sx[i]), g.SigF)
	}
	diag := g.SigF + g.Noise + g.jitter
	L, err := numeric.CholUpdateAppend(g.chol, k, diag, diag*1e-12)
	if err != nil {
		g.refactorization++
		p := newPosterior(n, d)
		lml, err := g.evaluate(p, g.LS, g.SigF, g.Noise, nil, nil, appendTries, g.workers)
		if err != nil {
			return err
		}
		g.sx, g.chol, g.alpha, g.jitter, g.lml = p.sx, p.L, p.alpha, p.jitter, lml
		return nil
	}
	g.chol = L
	g.alpha = numeric.GrowFloats(g.alpha, n)
	numeric.CholSolveInto(L, g.y, g.alpha)
	g.lml = g.logML(g.chol, g.alpha)
	return nil
}

// refreshTargets fits the output transform — Yeo-Johnson, then
// standardisation — to the whole raw-target history and recomputes the
// model-space targets from it. Fit and Append both call it.
func (g *GP) refreshTargets() {
	ty := numeric.GrowFloats(g.y, len(g.rawY))
	g.lambda = numeric.FitYeoJohnson(g.rawY)
	for i, v := range g.rawY {
		ty[i] = numeric.YeoJohnson(v, g.lambda)
	}
	g.std = numeric.FitStandardizer(ty)
	for i := range ty {
		ty[i] = g.std.Apply(ty[i])
	}
	g.y = ty
}

// Clone returns a deep copy of the model, so callers (benchmarks, what-if
// evaluation) can Append without mutating the original.
func (g *GP) Clone() *GP {
	out := *g
	out.X = make([][]float64, len(g.X))
	for i, x := range g.X {
		out.X[i] = append([]float64(nil), x...)
	}
	out.sx = make([][]float64, len(g.sx))
	for i, x := range g.sx {
		out.sx[i] = append([]float64(nil), x...)
	}
	out.LS = append([]float64(nil), g.LS...)
	out.rawY = append([]float64(nil), g.rawY...)
	out.y = append([]float64(nil), g.y...)
	out.alpha = append([]float64(nil), g.alpha...)
	if g.chol != nil {
		out.chol = g.chol.Clone()
	}
	out.scrK = nil
	return &out
}

// PredictBatch computes the transformed-space posterior for every candidate
// in xs, writing means and standard deviations into mu and sigma (length
// len(xs) each). The triangular solves are amortised: candidates are
// partitioned into fixed-size blocks and each block runs one multi-RHS
// forward solve that streams the Cholesky factor once across the whole block
// instead of once per candidate. Blocks are fanned out across the fitted
// Workers bound; every candidate column sees exactly the arithmetic of a
// serial PredictTransformed call, so results are bit-identical to the
// one-at-a-time path for every worker count.
func (g *GP) PredictBatch(xs [][]float64, mu, sigma []float64) {
	q := len(xs)
	if len(mu) != q || len(sigma) != q {
		panic(fmt.Sprintf("gp: PredictBatch output length %d/%d for %d candidates", len(mu), len(sigma), q))
	}
	if q == 0 {
		return
	}
	n := len(g.X)
	numeric.ParallelFor(g.workers, numeric.NumShards(q), func(s int) {
		lo, hi := numeric.ShardBounds(q, s)
		qb := hi - lo
		sq := scaleInputs(xs[lo:hi], g.LS)
		b := numeric.NewMatrix(n, qb)
		ss := make([]float64, qb)
		mub := mu[lo:hi]
		for a := range mub {
			mub[a] = 0
		}
		for i := 0; i < n; i++ {
			bi := b.Row(i)
			sxi := g.sx[i]
			ai := g.alpha[i]
			for a := 0; a < qb; a++ {
				bi[a] = kernelFromR2(scaledR2(sq[a], sxi), g.SigF)
			}
			for a := 0; a < qb; a++ {
				mub[a] += bi[a] * ai
			}
		}
		numeric.SolveLowerBatch(g.chol, b)
		for i := 0; i < n; i++ {
			bi := b.Row(i)
			for a := 0; a < qb; a++ {
				ss[a] += bi[a] * bi[a]
			}
		}
		for a := 0; a < qb; a++ {
			varf := g.SigF + g.Noise - ss[a]
			if varf < 1e-12 {
				varf = 1e-12
			}
			sigma[lo+a] = math.Sqrt(varf)
		}
	})
}
