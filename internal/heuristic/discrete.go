package heuristic

import (
	"math"
	"math/rand"
)

// Sequence optimisers operate on variable-length categorical sequences
// (compiler pass sequences): each gene is an index into a vocabulary.

// SeqOptimizer is the ask/tell interface for sequence heuristics.
type SeqOptimizer interface {
	Ask(k int) [][]int
	Tell(seq []int, y float64)
}

// SeqSpace describes the search space: vocabulary size and length limits.
type SeqSpace struct {
	Vocab  int
	MinLen int
	MaxLen int
}

// Sample draws a uniform random sequence.
func (s SeqSpace) Sample(rng *rand.Rand) []int {
	n := s.MinLen
	if s.MaxLen > s.MinLen {
		n += rng.Intn(s.MaxLen - s.MinLen + 1)
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(s.Vocab)
	}
	return seq
}

// Mutate applies one random edit: replace, insert, delete or swap.
func (s SeqSpace) Mutate(rng *rand.Rand, seq []int) []int {
	out := append([]int(nil), seq...)
	op := rng.Intn(4)
	switch {
	case op == 0 && len(out) > 0: // replace
		out[rng.Intn(len(out))] = rng.Intn(s.Vocab)
	case op == 1 && len(out) < s.MaxLen: // insert
		pos := rng.Intn(len(out) + 1)
		out = append(out, 0)
		copy(out[pos+1:], out[pos:])
		out[pos] = rng.Intn(s.Vocab)
	case op == 2 && len(out) > s.MinLen && len(out) > 0: // delete
		pos := rng.Intn(len(out))
		out = append(out[:pos], out[pos+1:]...)
	case len(out) >= 2: // swap
		i, j := rng.Intn(len(out)), rng.Intn(len(out))
		out[i], out[j] = out[j], out[i]
	default:
		if len(out) > 0 {
			out[rng.Intn(len(out))] = rng.Intn(s.Vocab)
		}
	}
	return out
}

// SeqRandom samples uniform sequences.
type SeqRandom struct {
	Space SeqSpace
	Rng   *rand.Rand
}

// Ask implements SeqOptimizer.
func (r *SeqRandom) Ask(k int) [][]int {
	out := make([][]int, k)
	for i := range out {
		out[i] = r.Space.Sample(r.Rng)
	}
	return out
}

// Tell implements SeqOptimizer.
func (r *SeqRandom) Tell([]int, float64) {}

// DES is the discrete 1+λ evolution strategy (§2.2.3): candidates are
// mutations of the incumbent best; Tell adopts improvements.
type DES struct {
	Space SeqSpace
	Rng   *rand.Rand
	// MutBurst is the number of stacked mutations per offspring (≥1).
	MutBurst int
	best     []int
	bestY    float64
	hasBest  bool
}

// NewDES builds a DES starting from a random incumbent.
func NewDES(space SeqSpace, rng *rand.Rand) *DES {
	return &DES{Space: space, Rng: rng, MutBurst: 2}
}

// Seed sets the incumbent (e.g. a known-good sequence such as -O3's).
func (d *DES) Seed(seq []int, y float64) {
	d.best = append([]int(nil), seq...)
	d.bestY = y
	d.hasBest = true
}

// Ask returns k mutated offspring of the incumbent.
func (d *DES) Ask(k int) [][]int {
	out := make([][]int, k)
	for i := range out {
		if !d.hasBest {
			out[i] = d.Space.Sample(d.Rng)
			continue
		}
		seq := d.best
		burst := 1 + d.Rng.Intn(d.MutBurst)
		for b := 0; b < burst; b++ {
			seq = d.Space.Mutate(d.Rng, seq)
		}
		out[i] = seq
	}
	return out
}

// Tell adopts the sample as incumbent when it improves.
func (d *DES) Tell(seq []int, y float64) {
	if !d.hasBest || y < d.bestY {
		d.best = append([]int(nil), seq...)
		d.bestY = y
		d.hasBest = true
	}
}

// Best returns the incumbent.
func (d *DES) Best() ([]int, float64, bool) { return d.best, d.bestY, d.hasBest }

// SeqGA is a genetic algorithm over sequences: tournament selection,
// one-point crossover and edit mutations.
type SeqGA struct {
	Space   SeqSpace
	Rng     *rand.Rand
	PopSize int
	pop     []seqInd
}

type seqInd struct {
	seq []int
	y   float64
}

// NewSeqGA builds a sequence GA.
func NewSeqGA(space SeqSpace, popSize int, rng *rand.Rand) *SeqGA {
	return &SeqGA{Space: space, Rng: rng, PopSize: popSize}
}

func (g *SeqGA) tournament() []int {
	a := g.pop[g.Rng.Intn(len(g.pop))]
	b := g.pop[g.Rng.Intn(len(g.pop))]
	if a.y <= b.y {
		return a.seq
	}
	return b.seq
}

// Ask generates offspring; before the population fills, uniform samples.
func (g *SeqGA) Ask(k int) [][]int {
	out := make([][]int, 0, k)
	for len(out) < k {
		if len(g.pop) < 2 {
			out = append(out, g.Space.Sample(g.Rng))
			continue
		}
		p1, p2 := g.tournament(), g.tournament()
		c := g.crossover(p1, p2)
		if g.Rng.Float64() < 0.9 {
			c = g.Space.Mutate(g.Rng, c)
		}
		out = append(out, c)
	}
	return out
}

// crossover splices a prefix of p1 with a suffix of p2, clamped to limits.
func (g *SeqGA) crossover(p1, p2 []int) []int {
	if len(p1) == 0 {
		return append([]int(nil), p2...)
	}
	if len(p2) == 0 {
		return append([]int(nil), p1...)
	}
	cut1 := g.Rng.Intn(len(p1) + 1)
	cut2 := g.Rng.Intn(len(p2) + 1)
	c := append([]int(nil), p1[:cut1]...)
	c = append(c, p2[cut2:]...)
	if len(c) > g.Space.MaxLen {
		c = c[:g.Space.MaxLen]
	}
	for len(c) < g.Space.MinLen {
		c = append(c, g.Rng.Intn(g.Space.Vocab))
	}
	return c
}

// Tell performs steady-state replacement of the worst member.
func (g *SeqGA) Tell(seq []int, y float64) {
	ind := seqInd{seq: append([]int(nil), seq...), y: y}
	if len(g.pop) < g.PopSize {
		g.pop = append(g.pop, ind)
		return
	}
	worst, wi := math.Inf(-1), -1
	for i, p := range g.pop {
		if p.y > worst {
			worst, wi = p.y, i
		}
	}
	if y < worst {
		g.pop[wi] = ind
	}
}

// PopulationDiversity reports the mean pairwise edit-distance proxy
// (normalised Hamming over the aligned prefix plus length difference).
func (g *SeqGA) PopulationDiversity() float64 {
	n := len(g.pop)
	if n < 2 {
		return 0
	}
	total, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total += seqDistance(g.pop[i].seq, g.pop[j].seq)
			cnt++
		}
	}
	return total / float64(cnt)
}

func seqDistance(a, b []int) float64 {
	short := len(a)
	if len(b) < short {
		short = len(b)
	}
	diff := math.Abs(float64(len(a) - len(b)))
	for i := 0; i < short; i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	longer := math.Max(float64(len(a)), float64(len(b)))
	if longer == 0 {
		return 0
	}
	return diff / longer
}
