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
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fit_bits.json from this build")

// fitBitsCommit names the commit whose kernels generated testdata/fit_bits.json.
// -update stamps it into the file; change it only with a deliberate re-baseline.
const fitBitsCommit = "bf93068f3bf0b9da6f114b96f83571afac81ce34"

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
	seed int64
	// jitterRetry marks the case that exists to take CholeskyWithJitterInto's
	// retry path: its golden jitter must not be zero.
	jitterRetry bool
}

// goldenCases are the fixed-seed fits pinned by fit_bits.json: the three
// (n, d) shapes a tuning run passes through (first fit, mid-run, the
// sha_long end state) under both kernels, and one history with near-duplicate
// rows under tiny noise whose factorisations need the jitter retry.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, shape := range [][2]int{{9, 24}, {60, 53}, {150, 55}} {
		n, d := shape[0], shape[1]
		for _, kind := range []KernelKind{Matern52, RBF} {
			kname := "matern52"
			if kind == RBF {
				kname = "rbf"
			}
			X, Y := randHistory(rand.New(rand.NewSource(int64(1000*n+d))), n, d)
			opts := DefaultOptions()
			opts.Kernel = kind
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s/n%d_d%d", kname, n, d), X: X, Y: Y, opts: opts, seed: 5,
			})
		}
	}
	X, Y := randHistory(rand.New(rand.NewSource(77)), 40, 3)
	for i := 30; i < 40; i++ {
		X[i] = append([]float64(nil), X[i-30]...)
		X[i][0] += 1e-9
	}
	opts := DefaultOptions()
	opts.AdamSteps = 12
	opts.NoiseFloor, opts.NoiseCeil = 1e-18, 1e-16
	opts.WarmLS = []float64{0.5, 0.5, 0.5}
	opts.WarmSigF, opts.WarmNoise = 1, 1e-17
	cases = append(cases, goldenCase{name: "matern52/near_duplicates_jitter", X: X, Y: Y, opts: opts, seed: 5, jitterRetry: true})
	return cases
}

func fitBitsFor(t *testing.T, c goldenCase, workers int) fitBits {
	t.Helper()
	opts := c.opts
	opts.Workers = workers
	g, err := Fit(c.X, c.Y, opts, rand.New(rand.NewSource(c.seed)))
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
