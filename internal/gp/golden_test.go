package gp

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/numeric"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fit_bits.json from this build")

// fitBitsCommit names the commit whose kernels generated testdata/fit_bits.json.
// -update stamps it into the file; change it only with a deliberate re-baseline.
const fitBitsCommit = "86f0e64f0b1d07f2e05206bd83f7a451773a73ed"

// fitBits is every float a fitted model hands on, as math.Float64bits in hex.
type fitBits struct {
	LS     []string `json:"ls"`
	SigF   string   `json:"sigf"`
	Noise  string   `json:"noise"`
	LML    string   `json:"lml"`
	Jitter string   `json:"jitter"`
	Alpha  []string `json:"alpha"`
	Mu     []string `json:"predict_mu"`
	Sigma  []string `json:"predict_sigma"`
}

type fitBitsFile struct {
	Commit string             `json:"generated_at_commit"`
	Cases  map[string]fitBits `json:"cases"`
}

func hexBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func hexBitsOf(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = hexBits(v)
	}
	return out
}

type goldenCase struct {
	name string
	X    [][]float64
	Y    []float64
	opts Options
	warm *GP // the fit's starting hyperparameters, if set
	// jitterRetry marks the case that exists to take CholeskyWithJitterInto's
	// retry path: its golden jitter must not be zero.
	jitterRetry bool
}

// goldenCases are the fits pinned by fit_bits.json, on fixed-seed histories:
// the three (n, d) shapes a tuning run passes through (first fit, mid-run, the
// sha_long end state) at the default 40 Adam steps, and one history with
// near-duplicate rows under tiny noise whose factorisations need the jitter
// retry.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, shape := range [][2]int{{9, 24}, {60, 53}, {150, 55}} {
		n, d := shape[0], shape[1]
		X, Y := randHistory(rand.New(rand.NewSource(int64(1000*n+d))), n, d)
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("matern52/n%d_d%d", n, d), X: X, Y: Y, opts: DefaultOptions(),
		})
	}
	X, Y := randHistory(rand.New(rand.NewSource(77)), 40, 3)
	for i := 30; i < 40; i++ {
		X[i] = append([]float64(nil), X[i-30]...)
		X[i][0] += 1e-9
	}
	opts := DefaultOptions()
	opts.AdamSteps = 12
	opts.NoiseFloor, opts.NoiseCeil = 1e-18, 1e-16
	warm := &GP{LS: []float64{0.5, 0.5, 0.5}, SigF: 1, Noise: 1e-17}
	cases = append(cases, goldenCase{name: "matern52/near_duplicates_jitter", X: X, Y: Y, opts: opts, warm: warm, jitterRetry: true})
	return cases
}

func fitBitsFor(t *testing.T, c goldenCase, workers int) fitBits {
	t.Helper()
	opts := c.opts
	opts.Workers = workers
	g, err := fit(c.X, c.Y, opts, c.warm)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", c.name, workers, err)
	}
	queries, _ := randHistory(rand.New(rand.NewSource(31)), 32, len(c.X[0]))
	mu := make([]float64, len(queries))
	sigma := make([]float64, len(queries))
	g.PredictBatch(queries, mu, sigma)
	return fitBits{
		LS: hexBitsOf(g.LS), SigF: hexBits(g.SigF), Noise: hexBits(g.Noise),
		LML: hexBits(g.lml), Jitter: hexBits(g.jitter), Alpha: hexBitsOf(g.alpha),
		Mu: hexBitsOf(mu), Sigma: hexBitsOf(sigma),
	}
}

// TestFitBitsGolden pins every bit of a fit — hyperparameters, LML, alpha,
// jitter and a 32-point posterior — against values recorded at fitBitsCommit,
// before the fit kernels were re-ordered. A BO trajectory is a fixed job only
// while these do not move (DESIGN.md "Surrogate engine"), so a kernel change
// that fails here has changed the arithmetic, not just its schedule.
func TestFitBitsGolden(t *testing.T) {
	const path = "testdata/fit_bits.json"
	cases := goldenCases()
	if *updateGolden {
		out := fitBitsFile{Commit: fitBitsCommit, Cases: map[string]fitBits{}}
		for _, c := range cases {
			out.Cases[c.name] = fitBitsFor(t, c, 1)
		}
		data, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(out.Cases), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want fitBitsFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Commit != fitBitsCommit {
		t.Fatalf("%s was generated at %s, the test names %s", path, want.Commit, fitBitsCommit)
	}
	if len(want.Cases) != len(cases) {
		t.Errorf("%d cases computed, %d in %s", len(cases), len(want.Cases), path)
	}
	for _, c := range cases {
		w, ok := want.Cases[c.name]
		if !ok {
			t.Errorf("%s: not in %s", c.name, path)
			continue
		}
		if c.jitterRetry && w.Jitter == hexBits(0) {
			t.Errorf("%s: golden jitter is zero, the case no longer takes the retry path", c.name)
		}
		for _, workers := range []int{1, 2, 8} {
			got := fitBitsFor(t, c, workers)
			gv, wv := reflect.ValueOf(got), reflect.ValueOf(w)
			for f := 0; f < gv.NumField(); f++ {
				if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
					t.Errorf("%s workers=%d: %s moved", c.name, workers, gv.Type().Field(f).Name)
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFitKeepsItsFinalFactor holds the posterior a fit keeps to a fresh
// factorisation at the model's own hyperparameters, made the way the model
// used to refactorise after every fit: scaled inputs, K, an 8-try jittered
// Cholesky and alpha. Every golden case is checked, plus a frozen refit
// through Update's fourth branch, at several worker counts; a fit that kept
// the factor of its last Adam step instead of its closing evaluation fails.
func TestFitKeepsItsFinalFactor(t *testing.T) {
	type fitted struct {
		name string
		fit  func(workers int) (*GP, error)
	}
	var fits []fitted
	for _, c := range goldenCases() {
		fits = append(fits, fitted{c.name, func(workers int) (*GP, error) {
			opts := c.opts
			opts.Workers = workers
			return fit(c.X, c.Y, opts, c.warm)
		}})
	}
	X, Y := randHistory(rand.New(rand.NewSource(58)), 61, 53)
	fits = append(fits, fitted{"frozen refit n60_d53", func(workers int) (*GP, error) {
		opts := DefaultOptions()
		opts.Workers = workers
		prev, err := fit(X[:60], Y[:60], opts, nil)
		if err != nil {
			return nil, err
		}
		// The window slides by one row: not a refit iteration, not an append.
		g, step, err := Update(prev, X[1:], Y[1:], 1, 3, opts)
		if err == nil && (step != Fitted || g == prev) {
			t.Fatalf("Update took step %d, want a frozen refit", step)
		}
		return g, err
	}})

	for _, f := range fits {
		for _, workers := range []int{1, 2, 8} {
			g, err := f.fit(workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", f.name, workers, err)
			}
			n := len(g.X)
			sx := scaleInputs(g.X, g.LS)
			K := numeric.NewMatrix(n, n)
			g.buildKInto(K, nil, nil, sx, g.SigF, g.Noise, workers)
			L, jitter, err := numeric.CholeskyWithJitter(K, 1e-10, 8)
			if err != nil {
				t.Fatalf("%s workers=%d: oracle factorisation: %v", f.name, workers, err)
			}
			alpha := make([]float64, n)
			numeric.CholSolveInto(L, g.y, alpha)

			tag := fmt.Sprintf("%s workers=%d", f.name, workers)
			if !sameBits(g.chol.Data, L.Data) {
				t.Errorf("%s: kept factor differs from a fresh one", tag)
			}
			if !sameBits(g.alpha, alpha) {
				t.Errorf("%s: kept alpha differs from a fresh one", tag)
			}
			if math.Float64bits(g.jitter) != math.Float64bits(jitter) {
				t.Errorf("%s: kept jitter %g, a fresh factorisation adds %g", tag, g.jitter, jitter)
			}
			if len(g.sx) != n {
				t.Fatalf("%s: %d scaled rows for %d inputs", tag, len(g.sx), n)
			}
			for i, row := range g.sx {
				if !sameBits(row, sx[i]) {
					t.Errorf("%s: kept scaled row %d differs", tag, i)
					break
				}
				if cap(row) != len(row) {
					t.Errorf("%s: kept scaled row %d has spare capacity %d", tag, i, cap(row)-len(row))
					break
				}
			}
		}
	}
}
