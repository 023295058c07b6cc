package tuners

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/passes"
)

// BOCA is the BOCA-style baseline: Bayesian optimisation with a
// random-forest surrogate over RAW pass-sequence features (per-pass
// occurrence counts + first positions), an EI acquisition from the forest's
// across-tree variance, and candidate pools built by mutating the incumbent
// plus uniform exploration. Unlike CITROEN it never looks at compilation
// statistics, which is exactly the comparison the paper draws (§5.1).
type BOCA struct{}

// BOCA's candidate pool per iteration, and the random sequences it measures
// before the forest takes over.
const (
	bocaPool       = 40
	bocaInitRandom = 6
)

// Name implements Tuner.
func (BOCA) Name() string { return "BOCA" }

// Tune implements Tuner.
func (b BOCA) Tune(task core.Task, budget int, seed int64) (*Result, error) {
	h, err := newHarness(task, budget)
	if err != nil {
		return nil, err
	}
	sp, vocab := space()
	rng := rand.New(rand.NewSource(seed))
	d := 2 * len(vocab) // counts + first positions

	feat := func(seq []int) []float64 {
		x := make([]float64, d)
		n := float64(len(seq))
		for i, g := range seq {
			x[g]++
			if x[len(vocab)+g] == 0 && n > 0 {
				x[len(vocab)+g] = 1 - float64(i)/n
			}
		}
		return x
	}

	type obs struct {
		mod string
		seq []int
	}
	X := map[string][][]float64{}
	Y := map[string][]float64{}
	incumbent := map[string][]int{}
	o3, err := indicesOf(vocab, passes.O3Sequence())
	if err != nil {
		return nil, err
	}
	for _, m := range h.mods {
		incumbent[m] = sp.Clamp(o3, rng)
	}

	record := func(o obs, y float64) {
		X[o.mod] = append(X[o.mod], feat(o.seq))
		Y[o.mod] = append(Y[o.mod], y)
		if y <= minOf(Y[o.mod]) {
			incumbent[o.mod] = append([]int(nil), o.seq...)
		}
	}

	// Initial random design.
	for i := 0; i < bocaInitRandom && h.used < budget; i++ {
		mod := h.mods[i%len(h.mods)]
		seq := sp.Sample(rng)
		y, ok := h.measure(mod, toStrings(vocab, seq))
		if !ok {
			break
		}
		record(obs{mod, seq}, y)
	}

	for i := 0; h.used < budget; i++ {
		mod := h.mods[i%len(h.mods)]
		if len(Y[mod]) < 3 {
			seq := sp.Sample(rng)
			y, ok := h.measure(mod, toStrings(vocab, seq))
			if !ok {
				break
			}
			record(obs{mod, seq}, y)
			continue
		}
		f := fitForest(X[mod], Y[mod], defaultRFOptions(), rng)
		best := minOf(Y[mod])
		// Candidate pool: mutations of the incumbent + uniform samples.
		bestAF, bestSeq := math.Inf(-1), []int(nil)
		for c := 0; c < bocaPool; c++ {
			var cand []int
			if c%2 == 0 {
				cand = incumbent[mod]
				for k := 0; k <= rng.Intn(3); k++ {
					cand = sp.Mutate(rng, cand)
				}
			} else {
				cand = sp.Sample(rng)
			}
			mu, sig := f.Predict(feat(cand))
			af := expectedImprovement(best, mu, sig)
			if af > bestAF {
				bestAF, bestSeq = af, cand
			}
		}
		y, ok := h.measure(mod, toStrings(vocab, bestSeq))
		if !ok {
			break
		}
		record(obs{mod, bestSeq}, y)
	}
	return h.result(b.Name()), nil
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

func expectedImprovement(best, mu, sigma float64) float64 {
	if sigma < 1e-9 {
		return math.Max(best-mu, 0)
	}
	z := (best - mu) / sigma
	return (best-mu)*numeric.NormalCDF(z) + sigma*numeric.NormalPDF(z)
}
