package gp

import (
	"math"
	"math/rand"
	"testing"
)

func fitSine(t *testing.T, kind KernelKind, n int) (*GP, [][]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := float64(i) / float64(n-1)
		X[i] = []float64{x}
		Y[i] = math.Sin(6*x) + 0.01*rng.NormFloat64()
	}
	opts := DefaultOptions()
	opts.Kernel = kind
	g, err := Fit(X, Y, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, X, Y
}

func TestFitInterpolates(t *testing.T) {
	for _, kind := range []KernelKind{RBF, Matern52} {
		g, X, Y := fitSine(t, kind, 25)
		for i := range X {
			mu, _ := g.Predict(X[i])
			if math.Abs(mu-Y[i]) > 0.15 {
				t.Fatalf("kernel %v: poor fit at %v: mu=%v y=%v", kind, X[i], mu, Y[i])
			}
		}
		// Prediction between points should also be close.
		mu, _ := g.Predict([]float64{0.5})
		if math.Abs(mu-math.Sin(3)) > 0.2 {
			t.Fatalf("kernel %v: interpolation off: %v vs %v", kind, mu, math.Sin(3))
		}
	}
}

func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	g, _, _ := fitSine(t, Matern52, 20)
	_, sNear := g.PredictTransformed([]float64{0.5})
	_, sFar := g.PredictTransformed([]float64{3.0})
	if sFar <= sNear {
		t.Fatalf("sigma far (%v) should exceed sigma near (%v)", sFar, sNear)
	}
}

func TestLMLGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, d := 12, 3
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		Y[i] = X[i][0]*2 - X[i][1] + 0.3*math.Sin(5*X[i][2])
	}
	g := &GP{Kind: Matern52, X: X, y: Y}
	ls := []float64{0.6, 0.8, 0.5}
	sigf, noise := 1.2, 1e-3

	lml0, grad, ok := g.lmlGrad(ls, sigf, noise, newGradScratch(n, d), 1)
	if !ok {
		t.Fatal("grad failed")
	}
	_ = lml0
	sc := newGradScratch(n, d)
	h := 1e-5
	check := func(idx int, perturb func(delta float64) (float64, bool)) {
		up, ok1 := perturb(h)
		dn, ok2 := perturb(-h)
		if !ok1 || !ok2 {
			t.Fatal("lml eval failed")
		}
		fd := (up - dn) / (2 * h)
		if math.Abs(fd-grad[idx]) > 1e-3*(1+math.Abs(fd)) {
			t.Fatalf("grad[%d] = %v, finite diff = %v", idx, grad[idx], fd)
		}
	}
	for dd := 0; dd < d; dd++ {
		dd := dd
		check(dd, func(delta float64) (float64, bool) {
			ls2 := append([]float64(nil), ls...)
			ls2[dd] = math.Exp(math.Log(ls[dd]) + delta)
			return g.computeLML(ls2, sigf, noise, sc, 1)
		})
	}
	check(d, func(delta float64) (float64, bool) {
		return g.computeLML(ls, math.Exp(math.Log(sigf)+delta), noise, sc, 1)
	})
	check(d+1, func(delta float64) (float64, bool) {
		return g.computeLML(ls, sigf, math.Exp(math.Log(noise)+delta), sc, 1)
	})
}

func TestPredictGradMatchesFiniteDifference(t *testing.T) {
	for _, kind := range []KernelKind{RBF, Matern52} {
		g, _, _ := fitSine(t, kind, 15)
		x := []float64{0.37}
		mu, dmu, sig, dsig := g.PredictGrad(x)
		h := 1e-6
		muU, sigU := g.PredictTransformed([]float64{x[0] + h})
		muD, sigD := g.PredictTransformed([]float64{x[0] - h})
		fdMu := (muU - muD) / (2 * h)
		fdSig := (sigU - sigD) / (2 * h)
		if math.Abs(fdMu-dmu[0]) > 1e-3*(1+math.Abs(fdMu)) {
			t.Fatalf("kernel %v: dmu = %v, fd = %v", kind, dmu[0], fdMu)
		}
		if math.Abs(fdSig-dsig[0]) > 1e-3*(1+math.Abs(fdSig)) {
			t.Fatalf("kernel %v: dsigma = %v, fd = %v", kind, dsig[0], fdSig)
		}
		_ = mu
		_ = sig
	}
}

func TestARDIdentifiesIrrelevantDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		Y[i] = math.Sin(8*X[i][0]) + 0.01*rng.NormFloat64() // dim 1 irrelevant
	}
	opts := DefaultOptions()
	opts.AdamSteps = 150
	opts.Restarts = 3
	g, err := Fit(X, Y, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.LS[1] <= g.LS[0] {
		t.Fatalf("ARD did not discount irrelevant dim: ls = %v", g.LS)
	}
}

func TestTransformRoundTrip(t *testing.T) {
	g, _, _ := fitSine(t, Matern52, 10)
	for _, y := range []float64{-0.9, 0, 1.2} {
		if got := g.InvertMean(g.TransformY(y)); math.Abs(got-y) > 1e-6 {
			t.Fatalf("transform round trip: %v -> %v", y, got)
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultOptions(), nil); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, DefaultOptions(), nil); err == nil {
		t.Fatal("expected error for single point")
	}
}

func TestWarmStartUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X := [][]float64{{0}, {0.5}, {1}, {0.25}, {0.75}}
	Y := []float64{0, 1, 0, 0.7, 0.7}
	opts := DefaultOptions()
	opts.AdamSteps = 0 // keep the warm start verbatim
	opts.Restarts = 1
	warm := &GP{LS: []float64{0.123}, SigF: 2, Noise: 1e-4}
	g, err := fit(X, Y, opts, warm, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.LS[0]-0.123) > 1e-9 || math.Abs(g.SigF-2) > 1e-9 {
		t.Fatalf("warm start ignored: ls=%v sigf=%v", g.LS, g.SigF)
	}
}
