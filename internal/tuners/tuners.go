// Package tuners implements the competing baselines of §5.4.4 behind one
// interface: random search, a sequence GA, hill climbing (discrete 1+λ),
// simulated annealing, an OpenTuner-style adaptive ensemble, and a
// BOCA-style BO with a random-forest surrogate over raw pass features.
package tuners

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/heuristic"
	"repro/internal/passes"
)

// Result summarises a baseline run.
type Result struct {
	Name        string
	BestSeqs    map[string][]string
	BestSpeedup float64
	// Trace is the best-so-far speedup after each runtime measurement.
	Trace []float64
}

// Tuner is a search-based autotuner over a core.Task.
type Tuner interface {
	Name() string
	Tune(task core.Task, budget int, seed int64) (*Result, error)
}

// harness centralises measurement, incumbent tracking and tracing.
type harness struct {
	task  core.Task
	base  float64
	mods  []string
	best  map[string][]string
	bestY map[string]float64
	globY float64
	trace []float64
	used  int
	limit int
	memo  map[string]float64
}

// newHarness tunes the task's hot modules, or all of them when none is hot,
// as core.Tuner does; an error from HotModules fails the run there too.
func newHarness(task core.Task, budget int) (*harness, error) {
	hot, err := task.HotModules(0.9)
	if err != nil {
		return nil, err
	}
	if len(hot) == 0 {
		hot = task.Modules()
	}
	return &harness{
		task: task, base: task.BaselineTime(), mods: hot,
		best: map[string][]string{}, bestY: map[string]float64{},
		globY: 1.0, limit: budget, memo: map[string]float64{},
	}, nil
}

// seqsKey encodes a full measurement configuration unambiguously: module
// names sorted, every name %q-quoted so separators inside pass or module
// names cannot make distinct configurations collide, and a nil sequence
// (the O3 baseline) kept distinct from an empty one (zero passes).
func seqsKey(seqs map[string][]string) string {
	mods := make([]string, 0, len(seqs))
	for m := range seqs {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	var b []byte
	for _, m := range mods {
		b = append(strconv.AppendQuote(b, m), ':')
		if seqs[m] == nil {
			b = append(b, "nil;"...)
			continue
		}
		b = append(b, '[')
		for _, p := range seqs[m] {
			b = append(strconv.AppendQuote(b, p), ',')
		}
		b = append(b, "];"...)
	}
	return string(b)
}

// measure profiles the program with module mod rebuilt under seq. It returns
// the relative time y (lower better) and whether budget remained.
//
// Measurements are memoised on the full configuration (the simulator is
// deterministic for a given set of sequences), so a tuner revisiting a point
// skips the expensive Measure call. A memo hit still consumes budget and
// extends the trace — re-asking a known point is the tuner's spent
// evaluation, and the trace length stays equal to the budget.
func (h *harness) measure(mod string, seq []string) (float64, bool) {
	if h.used >= h.limit {
		return 0, false
	}
	seqs := map[string][]string{}
	for m, s := range h.best {
		seqs[m] = s
	}
	seqs[mod] = seq
	key := seqsKey(seqs)
	if y, ok := h.memo[key]; ok {
		// The first evaluation already applied any incumbent update this
		// configuration could deliver (improvements are strict).
		h.used++
		h.trace = append(h.trace, 1/h.globY)
		return y, true
	}
	t, err := h.task.Measure(context.Background(), seqs)
	h.used++
	y := 10.0 // differential-test failure penalty
	if err == nil {
		y = t / h.base
	}
	if err == nil {
		prev, ok := h.bestY[mod]
		if !ok || y < prev {
			h.bestY[mod] = y
			h.best[mod] = append([]string(nil), seq...)
		}
		if y < h.globY {
			h.globY = y
		}
	}
	h.memo[key] = y
	h.trace = append(h.trace, 1/h.globY)
	return y, true
}

func (h *harness) result(name string) *Result {
	return &Result{Name: name, BestSeqs: h.best, BestSpeedup: 1 / h.globY, Trace: h.trace}
}

// space returns the sequence search space over the full pass vocabulary.
func space(seqMax int) (heuristic.SeqSpace, []string) {
	vocab := passes.Names()
	return heuristic.SeqSpace{Vocab: len(vocab), MinLen: 8, MaxLen: seqMax}, vocab
}

func toStrings(vocab []string, seq []int) []string {
	out := make([]string, len(seq))
	for i, g := range seq {
		out[i] = vocab[g]
	}
	return out
}

// --- Random search ---

// Random samples uniform sequences round-robin over hot modules.
type Random struct{ SeqMax int }

// Name implements Tuner.
func (Random) Name() string { return "RandomSearch" }

// Tune implements Tuner.
func (r Random) Tune(task core.Task, budget int, seed int64) (*Result, error) {
	h, err := newHarness(task, budget)
	if err != nil {
		return nil, err
	}
	sp, vocab := space(seqMaxOr(r.SeqMax))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; h.used < budget; i++ {
		mod := h.mods[i%len(h.mods)]
		if _, ok := h.measure(mod, toStrings(vocab, sp.Sample(rng))); !ok {
			break
		}
	}
	return h.result(r.Name()), nil
}

func seqMaxOr(v int) int {
	if v <= 0 {
		return 120
	}
	return v
}

// --- Genetic algorithm ---

// GA tunes with a per-module sequence GA.
type GA struct {
	SeqMax int
	Pop    int
}

// Name implements Tuner.
func (GA) Name() string { return "GA" }

// Tune implements Tuner.
func (g GA) Tune(task core.Task, budget int, seed int64) (*Result, error) {
	h, err := newHarness(task, budget)
	if err != nil {
		return nil, err
	}
	sp, vocab := space(seqMaxOr(g.SeqMax))
	pop := g.Pop
	if pop <= 0 {
		pop = 20
	}
	gas := map[string]*heuristic.SeqGA{}
	for i, m := range h.mods {
		gas[m] = heuristic.NewSeqGA(sp, pop, rand.New(rand.NewSource(subSeed(seed, 0, i))))
	}
	for i := 0; h.used < budget; i++ {
		mod := h.mods[i%len(h.mods)]
		seq := gas[mod].Ask(1)[0]
		y, ok := h.measure(mod, toStrings(vocab, seq))
		if !ok {
			break
		}
		gas[mod].Tell(seq, y)
	}
	return h.result(g.Name()), nil
}

// --- Hill climbing (discrete 1+λ on the incumbent) ---

// HillClimb mutates the per-module incumbent, accepting improvements.
type HillClimb struct{ SeqMax int }

// Name implements Tuner.
func (HillClimb) Name() string { return "HillClimb" }

// Tune implements Tuner.
func (hc HillClimb) Tune(task core.Task, budget int, seed int64) (*Result, error) {
	h, err := newHarness(task, budget)
	if err != nil {
		return nil, err
	}
	sp, vocab := space(seqMaxOr(hc.SeqMax))
	des := map[string]*heuristic.DES{}
	o3, err := indicesOf(vocab, passes.O3Sequence())
	if err != nil {
		return nil, err
	}
	for i, m := range h.mods {
		rng := rand.New(rand.NewSource(subSeed(seed, 1, i)))
		d := heuristic.NewDES(sp, rng)
		d.MutBurst = 1
		d.Seed(sp.Clamp(o3, rng), 1.0)
		des[m] = d
	}
	for i := 0; h.used < budget; i++ {
		mod := h.mods[i%len(h.mods)]
		seq := des[mod].Ask(1)[0]
		y, ok := h.measure(mod, toStrings(vocab, seq))
		if !ok {
			break
		}
		des[mod].Tell(seq, y)
	}
	return h.result(hc.Name()), nil
}

// indicesOf maps pass names to vocabulary indices. An unknown name is an
// error, not a silent drop — a dropped pass would quietly shorten the
// sequence the tuner believes it is measuring (the same failure class as
// core's seqIndices).
func indicesOf(vocab []string, seq []string) ([]int, error) {
	idx := map[string]int{}
	for i, v := range vocab {
		idx[v] = i
	}
	out := make([]int, 0, len(seq))
	for _, p := range seq {
		i, ok := idx[p]
		if !ok {
			return nil, fmt.Errorf("tuners: pass %q not in the %d-pass vocabulary", p, len(vocab))
		}
		out = append(out, i)
	}
	return out, nil
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// subSeed derives an independent RNG stream seed from (seed, family, i).
// Additive offsets like seed+100+i collide across families once a family
// has ≥100 members, correlating streams that must be independent; hashing
// each coordinate through splitmix64 keeps streams distinct.
func subSeed(seed int64, family, i int) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ uint64(family))
	x = splitmix64(x ^ uint64(i))
	return int64(x)
}

// --- Simulated annealing ---

// Anneal performs simulated annealing over sequence mutations.
type Anneal struct {
	SeqMax int
	T0     float64
	Cool   float64
}

// Name implements Tuner.
func (Anneal) Name() string { return "SimAnneal" }

// Tune implements Tuner.
func (a Anneal) Tune(task core.Task, budget int, seed int64) (*Result, error) {
	h, err := newHarness(task, budget)
	if err != nil {
		return nil, err
	}
	sp, vocab := space(seqMaxOr(a.SeqMax))
	rng := rand.New(rand.NewSource(seed))
	t0 := a.T0
	if t0 <= 0 {
		t0 = 0.05
	}
	cool := a.Cool
	if cool <= 0 {
		cool = 0.97
	}
	cur := map[string][]int{}
	curY := map[string]float64{}
	o3, err := indicesOf(vocab, passes.O3Sequence())
	if err != nil {
		return nil, err
	}
	for _, m := range h.mods {
		cur[m] = sp.Clamp(o3, rng)
		curY[m] = 1.0
	}
	T := t0
	for i := 0; h.used < budget; i++ {
		mod := h.mods[i%len(h.mods)]
		cand := sp.Mutate(rng, cur[mod])
		y, ok := h.measure(mod, toStrings(vocab, cand))
		if !ok {
			break
		}
		if y < curY[mod] || rng.Float64() < math.Exp(-(y-curY[mod])/T) {
			cur[mod] = cand
			curY[mod] = y
		}
		T *= cool
	}
	return h.result(a.Name()), nil
}

// --- Ensemble (OpenTuner-style adaptive technique allocation) ---

// Ensemble runs a portfolio of techniques, allocating measurements to the
// techniques that recently produced improvements (§3.1.1's OpenTuner).
type Ensemble struct{ SeqMax int }

// Name implements Tuner.
func (Ensemble) Name() string { return "Ensemble" }

// Tune implements Tuner.
func (e Ensemble) Tune(task core.Task, budget int, seed int64) (*Result, error) {
	h, err := newHarness(task, budget)
	if err != nil {
		return nil, err
	}
	sp, vocab := space(seqMaxOr(e.SeqMax))
	rng := rand.New(rand.NewSource(seed))
	o3, err := indicesOf(vocab, passes.O3Sequence())
	if err != nil {
		return nil, err
	}

	type tech struct {
		name   string
		gens   map[string]heuristic.SeqOptimizer
		credit float64
	}
	mkGens := func(f func(i int) heuristic.SeqOptimizer) map[string]heuristic.SeqOptimizer {
		out := map[string]heuristic.SeqOptimizer{}
		for i, m := range h.mods {
			out[m] = f(i)
		}
		return out
	}
	techs := []*tech{
		{name: "random", credit: 1, gens: mkGens(func(i int) heuristic.SeqOptimizer {
			return &heuristic.SeqRandom{Space: sp, Rng: rand.New(rand.NewSource(subSeed(seed, 0, i)))}
		})},
		{name: "ga", credit: 1, gens: mkGens(func(i int) heuristic.SeqOptimizer {
			return heuristic.NewSeqGA(sp, 16, rand.New(rand.NewSource(subSeed(seed, 1, i))))
		})},
		{name: "des", credit: 1, gens: mkGens(func(i int) heuristic.SeqOptimizer {
			drng := rand.New(rand.NewSource(subSeed(seed, 2, i)))
			d := heuristic.NewDES(sp, drng)
			d.Seed(sp.Clamp(o3, drng), 1.0)
			return d
		})},
	}
	bestY := 1.0
	for i := 0; h.used < budget; i++ {
		mod := h.mods[i%len(h.mods)]
		// Epsilon-greedy credit-proportional technique selection.
		var chosen *tech
		if rng.Float64() < 0.15 {
			chosen = techs[rng.Intn(len(techs))]
		} else {
			total := 0.0
			for _, t := range techs {
				total += t.credit
			}
			r := rng.Float64() * total
			for _, t := range techs {
				r -= t.credit
				if r <= 0 {
					chosen = t
					break
				}
			}
			if chosen == nil {
				chosen = techs[len(techs)-1]
			}
		}
		seq := chosen.gens[mod].Ask(1)[0]
		y, ok := h.measure(mod, toStrings(vocab, seq))
		if !ok {
			break
		}
		for _, t := range techs {
			t.gens[mod].Tell(seq, y)
			t.credit *= 0.98 // decay
			if t.credit < 0.1 {
				t.credit = 0.1
			}
		}
		if y < bestY {
			chosen.credit += (bestY - y) * 50
			bestY = y
		}
	}
	return h.result(e.Name()), nil
}
