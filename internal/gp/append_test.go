package gp

import (
	"math"
	"math/rand"
	"testing"
)

// frozenFit refits (X, Y) at g's hyperparameters verbatim (AdamSteps=0
// keeps the warm start), the reference a chain of Appends must agree with.
func frozenFit(g *GP, X [][]float64, Y []float64, base Options) (*GP, error) {
	o := base
	o.AdamSteps = 0
	return fit(X, Y, o, g)
}

func randHistory(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		Y[i] = math.Sin(5*X[i][0]) + 0.5*rng.NormFloat64()
	}
	return X, Y
}

func assertModelsAgree(t *testing.T, tag string, inc, ref *GP, queries [][]float64, tol float64) {
	t.Helper()
	if math.Abs(inc.LML()-ref.LML()) > tol*(1+math.Abs(ref.LML())) {
		t.Fatalf("%s: LML %v (append) vs %v (refit)", tag, inc.LML(), ref.LML())
	}
	for _, q := range queries {
		mi, si := inc.Predict(q)
		mr, sr := ref.Predict(q)
		if math.Abs(mi-mr) > tol*(1+math.Abs(mr)) {
			t.Fatalf("%s: mean at %v: %v (append) vs %v (refit)", tag, q, mi, mr)
		}
		if math.Abs(si-sr) > tol*(1+math.Abs(sr)) {
			t.Fatalf("%s: sigma at %v: %v (append) vs %v (refit)", tag, q, si, sr)
		}
	}
}

func TestAppendMatchesFullRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n0, extra, d = 8, 10, 3
	X, Y := randHistory(rng, n0+extra, d)
	queries, _ := randHistory(rng, 5, d)

	opts := DefaultOptions()
	opts.AdamSteps = 30
	g, err := Fit(X[:n0], Y[:n0], opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := n0; k < n0+extra; k++ {
		if err := g.Append(X[k], Y[k]); err != nil {
			t.Fatalf("append %d: %v", k, err)
		}
		ref, err := frozenFit(g, X[:k+1], Y[:k+1], opts)
		if err != nil {
			t.Fatalf("refit %d: %v", k, err)
		}
		assertModelsAgree(t, "history "+itoa(k+1), g, ref, queries, 1e-9)
	}
	if g.Refactorized() != 0 {
		t.Fatalf("well-conditioned appends hit the jitter-recovery path %d times", g.Refactorized())
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestAppendJitterRecovery(t *testing.T) {
	X := [][]float64{{0}, {0.5}, {1}}
	Y := []float64{0.1, 0.9, 0.2}
	opts := DefaultOptions()
	opts.AdamSteps = 0
	opts.NoiseFloor = 1e-14
	g, err := fit(X, Y, opts, &GP{LS: []float64{0.5}, SigF: 1, Noise: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	// Appending an exact duplicate of an existing input under ~1e-13 noise
	// drives the Schur complement to ~2e-13, below the diag·1e-12 guard, so
	// the rank-1 extension must be rejected in favour of a full jittered
	// refactorisation.
	if err := g.Append([]float64{0}, 0.15); err != nil {
		t.Fatal(err)
	}
	if g.Refactorized() != 1 {
		t.Fatalf("expected exactly one jitter recovery, got %d", g.Refactorized())
	}
	mu, sigma := g.Predict([]float64{0.3})
	if math.IsNaN(mu) || math.IsNaN(sigma) || sigma <= 0 {
		t.Fatalf("degenerate posterior after recovery: mu=%v sigma=%v", mu, sigma)
	}
	// The recovered model must still agree with a from-scratch warm refit,
	// which factorises the identical bordered matrix through the same
	// jitter schedule.
	ref, err := frozenFit(g, append(append([][]float64(nil), X...), []float64{0}), []float64{0.1, 0.9, 0.2, 0.15}, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertModelsAgree(t, "jitter recovery", g, ref, [][]float64{{0.3}, {0.7}, {0}}, 1e-9)
}

func TestAppendFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n0 := 3 + rng.Intn(8)
		extra := 1 + rng.Intn(8)
		d := 1 + rng.Intn(4)
		X, Y := randHistory(rng, n0+extra, d)
		queries, _ := randHistory(rng, 3, d)

		opts := DefaultOptions()
		opts.AdamSteps = 10
		g, err := Fit(X[:n0], Y[:n0], opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k := n0; k < n0+extra; k++ {
			if err := g.Append(X[k], Y[k]); err != nil {
				t.Fatalf("trial %d append %d: %v", trial, k, err)
			}
		}
		ref, err := frozenFit(g, X, Y, opts)
		if err != nil {
			t.Fatalf("trial %d refit: %v", trial, err)
		}
		assertModelsAgree(t, "fuzz trial "+itoa(trial), g, ref, queries, 1e-9)
	}
}

func TestAppendRejectsBadInput(t *testing.T) {
	var unfitted GP
	if err := unfitted.Append([]float64{1}, 0); err == nil {
		t.Fatal("Append on an unfitted model must fail")
	}
	g, _, _ := fitSine(t, 10)
	if err := g.Append([]float64{1, 2}, 0); err == nil {
		t.Fatal("Append with mismatched dimensionality must fail")
	}
}

func TestPredictBatchBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	X, Y := randHistory(rng, 40, 2)
	queries, _ := randHistory(rng, 37, 2) // not a multiple of the shard span

	fit := func(workers int) *GP {
		opts := DefaultOptions()
		opts.AdamSteps = 15
		opts.Workers = workers
		g, err := Fit(X, Y, opts)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1 := fit(1)
	g8 := fit(8)
	if g1.SigF != g8.SigF || g1.Noise != g8.Noise || g1.LML() != g8.LML() {
		t.Fatalf("parallel fit not bit-identical: sigf %v/%v noise %v/%v lml %v/%v",
			g1.SigF, g8.SigF, g1.Noise, g8.Noise, g1.LML(), g8.LML())
	}
	for i := range g1.LS {
		if g1.LS[i] != g8.LS[i] {
			t.Fatalf("parallel fit length scales differ at %d: %v vs %v", i, g1.LS[i], g8.LS[i])
		}
	}

	mu1 := make([]float64, len(queries))
	sig1 := make([]float64, len(queries))
	mu8 := make([]float64, len(queries))
	sig8 := make([]float64, len(queries))
	g1.PredictBatch(queries, mu1, sig1)
	g8.PredictBatch(queries, mu8, sig8)
	for i, q := range queries {
		ms, ss := g1.PredictTransformed(q)
		if mu1[i] != ms || sig1[i] != ss {
			t.Fatalf("batch differs from single at %d: (%v,%v) vs (%v,%v)", i, mu1[i], sig1[i], ms, ss)
		}
		if mu1[i] != mu8[i] || sig1[i] != sig8[i] {
			t.Fatalf("batch differs across workers at %d", i)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g, X, _ := fitSine(t, 12)
	c := g.Clone()
	mu0, sig0 := g.Predict([]float64{0.4})
	if err := c.Append([]float64{0.9}, 0.3); err != nil {
		t.Fatal(err)
	}
	mu1, sig1 := g.Predict([]float64{0.4})
	if mu0 != mu1 || sig0 != sig1 {
		t.Fatal("Append on a clone mutated the original")
	}
	if len(g.X) != len(X) {
		t.Fatal("clone shares the input slice with the original")
	}
}

// Fit keeps the caller's rows but not its spare capacity: Append grows the
// model's own array, and the slot after the caller's last row stays the
// caller's (core's tuner appends its next observation there).
func TestAppendLeavesCallersBackingArrayAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, Y := randHistory(rng, 12, 2)
	back := make([][]float64, 12, 16)
	copy(back, X)
	opts := DefaultOptions()
	opts.AdamSteps = 0
	g, err := Fit(back, Y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]float64{0.25, 0.75}, 0.1); err != nil {
		t.Fatal(err)
	}
	if got := back[:13][12]; got != nil {
		t.Fatalf("Append wrote %v into the caller's backing array", got)
	}
	if len(g.X) != 13 {
		t.Fatalf("model has %d rows after Append, want 13", len(g.X))
	}
}
