package acq

import (
	"math"
	"testing"

	"repro/internal/gp"
)

func fitted(t *testing.T) *gp.GP {
	t.Helper()
	X := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	Y := []float64{1.0, 0.2, -0.5, 0.2, 1.0} // minimum near 0.5
	g, err := gp.Fit(X, Y, gp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestUCBPrefersLowMeanAndHighUncertainty(t *testing.T) {
	g := fitted(t)
	c := Config{Kind: UCB, Beta: 1.96}
	atMin := c.Value(g, []float64{0.5})
	atMax := c.Value(g, []float64{0.0})
	if atMin <= atMax {
		t.Fatalf("UCB should prefer the low-mean region: %v vs %v", atMin, atMax)
	}
	// A highly exploratory beta must make far-away (uncertain) points
	// relatively more attractive.
	cHi := Config{Kind: UCB, Beta: 100}
	far := cHi.Value(g, []float64{2.5})
	near := cHi.Value(g, []float64{0.5})
	if far <= near {
		t.Fatalf("high-beta UCB should chase uncertainty: %v vs %v", far, near)
	}
}

func TestEIZeroWhereNoImprovementPossible(t *testing.T) {
	g := fitted(t)
	best := g.TransformY(-0.5)
	c := Config{Kind: EI, Best: best}
	vMin := c.Value(g, []float64{0.5})
	vKnownBad := c.Value(g, []float64{0.0})
	if vMin < 0 || vKnownBad < 0 {
		t.Fatal("EI must be non-negative")
	}
	if vKnownBad >= vMin {
		t.Fatalf("EI at a known-bad observed point should be lower: %v vs %v", vKnownBad, vMin)
	}
}

func TestValueGradMatchesFiniteDifference(t *testing.T) {
	g := fitted(t)
	for _, cfg := range []Config{
		{Kind: UCB, Beta: 1.96},
		{Kind: EI, Best: g.TransformY(-0.3)},
	} {
		x := []float64{0.37}
		v, grad := cfg.ValueGrad(g, x)
		h := 1e-6
		up := cfg.Value(g, []float64{x[0] + h})
		dn := cfg.Value(g, []float64{x[0] - h})
		fd := (up - dn) / (2 * h)
		if math.Abs(fd-grad[0]) > 1e-3*(1+math.Abs(fd)) {
			t.Fatalf("kind %v: grad = %v, fd = %v", cfg.Kind, grad[0], fd)
		}
		if math.Abs(v-cfg.Value(g, x)) > 1e-12 {
			t.Fatalf("kind %v: ValueGrad value mismatch", cfg.Kind)
		}
	}
}

func TestCoverageScoring(t *testing.T) {
	cv := Coverage{Gamma: 0.5, DupPenalty: 10}
	base := 1.0
	if cv.Score(base, 0, false) != 1.0 {
		t.Fatal("neutral coverage changed score")
	}
	if cv.Score(base, 3, false) != 2.5 {
		t.Fatal("novel-dimension bonus wrong")
	}
	if cv.Score(base, 0, true) != -9 {
		t.Fatal("duplicate penalty wrong")
	}
}
