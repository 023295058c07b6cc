package aibo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/heuristic"
	"repro/internal/synth"
)

func boxFor(f synth.Function, d int) heuristic.Bounds {
	b := make(heuristic.Bounds, d)
	for i := range b {
		b[i] = [2]float64{f.Lo, f.Hi}
	}
	return b
}

// fastOpts shrinks the expensive knobs so unit tests stay quick.
func fastOpts() Options {
	o := DefaultOptions()
	o.InitSamples = 12
	o.RawCandidates = 60
	o.GradSteps = 8
	o.RefitEvery = 3
	o.GPOpts.AdamSteps = 25
	return o
}

func TestAIBOImprovesOverInitialDesign(t *testing.T) {
	f := synth.Ackley()
	b := boxFor(f, 6)
	res, err := Minimize(f.Eval, b, 60, fastOpts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 60 || len(res.BestTrace) != 60 {
		t.Fatalf("history length %d/%d", len(res.History), len(res.BestTrace))
	}
	initBest := math.Inf(1)
	for _, y := range res.History[:12] {
		if y < initBest {
			initBest = y
		}
	}
	if res.BestY >= initBest {
		t.Fatalf("BO never improved on random design: %v vs %v", res.BestY, initBest)
	}
	// Best trace must be non-increasing and consistent.
	for i := 1; i < len(res.BestTrace); i++ {
		if res.BestTrace[i] > res.BestTrace[i-1] {
			t.Fatal("best trace not monotone")
		}
	}
	if res.BestTrace[len(res.BestTrace)-1] != res.BestY {
		t.Fatal("trace/best mismatch")
	}
}

func TestAIBOBeatsBOGradOnHighDimAckley(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	f := synth.Ackley()
	d := 60
	b := boxFor(f, d)
	budget := 120

	// Average over seeds: the paper's claim is about typical behaviour, and
	// a single seed at a tiny test budget is noisy.
	var ai, grad float64
	for _, seed := range []int64{7, 8, 9} {
		res, err := Minimize(f.Eval, b, budget, fastOpts(), seed)
		if err != nil {
			t.Fatal(err)
		}
		ai += res.BestY
		gradOpts := fastOpts()
		gradOpts.Strategies = []Strategy{StratRandom}
		resGrad, err := Minimize(f.Eval, b, budget, gradOpts, seed)
		if err != nil {
			t.Fatal(err)
		}
		grad += resGrad.BestY
	}
	if ai >= grad {
		t.Fatalf("AIBO (avg %v) should beat BO-grad (avg %v) on Ackley%d", ai/3, grad/3, d)
	}
}

func TestDiagnosticsPopulated(t *testing.T) {
	f := synth.Griewank()
	b := boxFor(f, 4)
	res, err := Minimize(f.Eval, b, 25, fastOpts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) == 0 {
		t.Fatal("no diagnostics")
	}
	for _, d := range res.Diags {
		if d.Winner == "" || len(d.AF) == 0 {
			t.Fatalf("incomplete diag: %+v", d)
		}
	}
	if len(res.GADiversity) == 0 {
		t.Fatal("GA diversity trace missing")
	}
}

func TestSelectionModes(t *testing.T) {
	f := synth.Rastrigin()
	b := boxFor(f, 3)
	for _, mode := range []SelectionMode{SelectByAF, SelectRandom, SelectOracle} {
		o := fastOpts()
		o.Selection = mode
		if _, err := Minimize(f.Eval, b, 20, o, 5); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestBudgetValidation(t *testing.T) {
	f := synth.Ackley()
	b := boxFor(f, 2)
	o := fastOpts()
	if _, err := Minimize(f.Eval, b, o.InitSamples, o, 1); err == nil {
		t.Fatal("expected budget error")
	}
}

func TestTuRBOImprovesAndRespectsBudget(t *testing.T) {
	f := synth.Ackley()
	b := boxFor(f, 8)
	o := DefaultTuRBOOptions()
	o.InitSamples = 12
	o.Candidates = 80
	o.GPOpts.AdamSteps = 20
	o.RefitEvery = 3
	res, err := TuRBOMinimize(f.Eval, b, 60, o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 60 {
		t.Fatalf("budget not respected: %d", len(res.History))
	}
	initBest := math.Inf(1)
	for _, y := range res.History[:12] {
		if y < initBest {
			initBest = y
		}
	}
	if res.BestY >= initBest {
		t.Fatalf("TuRBO never improved: %v vs %v", res.BestY, initBest)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	f := synth.Griewank()
	b := boxFor(f, 3)
	a, err := Minimize(f.Eval, b, 24, fastOpts(), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Minimize(f.Eval, b, 24, fastOpts(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestY != c.BestY {
		t.Fatalf("non-deterministic: %v vs %v", a.BestY, c.BestY)
	}
	_ = rand.Int
}
