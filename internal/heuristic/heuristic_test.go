package heuristic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
)

func boxFor(f synth.Function, d int) Bounds {
	b := make(Bounds, d)
	for i := range b {
		b[i] = [2]float64{f.Lo, f.Hi}
	}
	return b
}

// runOptimizer drives an ask/tell loop and returns the best value found.
func runOptimizer(opt Continuous, eval func([]float64) float64, iters int) float64 {
	best := math.Inf(1)
	for i := 0; i < iters; i++ {
		for _, x := range opt.Ask(1) {
			y := eval(x)
			opt.Tell(x, y)
			if y < best {
				best = y
			}
		}
	}
	return best
}

func TestCMAESConvergesOnSphere(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 8
	b := make(Bounds, d)
	for i := range b {
		b[i] = [2]float64{-5, 5}
	}
	sphere := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += (v - 1) * (v - 1)
		}
		return s
	}
	c := NewCMAES(b, 0.3, 0, rng)
	best := runOptimizer(c, sphere, 1200)
	if best > 0.05 {
		t.Fatalf("CMA-ES failed on sphere: best = %v", best)
	}
}

func TestCMAESBeatsRandomOnAckley(t *testing.T) {
	f := synth.Ackley()
	d := 10
	b := boxFor(f, d)
	iters := 1500
	rngC := rand.New(rand.NewSource(2))
	c := NewCMAES(b, 0.2, 0, rngC)
	bestC := runOptimizer(c, f.Eval, iters)
	rngR := rand.New(rand.NewSource(2))
	r := &RandomSearch{B: b, Rng: rngR}
	bestR := runOptimizer(r, f.Eval, iters)
	if bestC >= bestR {
		t.Fatalf("CMA-ES (%v) should beat random (%v) on Ackley%d", bestC, bestR, d)
	}
}

func TestGAImprovesOnRastrigin(t *testing.T) {
	f := synth.Rastrigin()
	d := 10
	b := boxFor(f, d)
	rng := rand.New(rand.NewSource(3))
	g := NewGA(b, 40, rng)
	bestG := runOptimizer(g, f.Eval, 2000)
	rngR := rand.New(rand.NewSource(3))
	bestR := runOptimizer(&RandomSearch{B: b, Rng: rngR}, f.Eval, 2000)
	if bestG >= bestR {
		t.Fatalf("GA (%v) should beat random (%v) on Rastrigin%d", bestG, bestR, d)
	}
}

func TestGADiversityPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := Bounds{{0, 1}, {0, 1}}
	g := NewGA(b, 10, rng)
	for i := 0; i < 20; i++ {
		x := b.Sample(rng)
		g.Tell(x, x[0]+x[1])
	}
	if g.PopulationDiversity() <= 0 {
		t.Fatal("diversity should be positive")
	}
}

func TestBoundsClipAndSample(t *testing.T) {
	b := Bounds{{-1, 1}, {0, 2}}
	x := b.Clip([]float64{-5, 5})
	if x[0] != -1 || x[1] != 2 {
		t.Fatalf("clip = %v", x)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		s := b.Sample(rng)
		if s[0] < -1 || s[0] > 1 || s[1] < 0 || s[1] > 2 {
			t.Fatalf("sample out of box: %v", s)
		}
	}
}

func TestCMAESStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := Bounds{{0, 1}, {0, 1}, {0, 1}}
	c := NewCMAES(b, 0.5, 6, rng)
	for it := 0; it < 30; it++ {
		for _, x := range c.Ask(3) {
			for _, v := range x {
				if v < 0 || v > 1 {
					t.Fatalf("out of bounds: %v", x)
				}
			}
			c.Tell(x, x[0]*x[0]+x[1]+x[2])
		}
	}
}

// --- sequence optimisers ---

func seqObjective(target []int) func([]int) float64 {
	return func(s []int) float64 {
		return seqDistance(s, target) + 0.01*math.Abs(float64(len(s)-len(target)))
	}
}

func TestSeqSpaceSampleAndMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := SeqSpace{Vocab: 10, MinLen: 3, MaxLen: 8}
	for i := 0; i < 100; i++ {
		s := sp.Sample(rng)
		if len(s) < 3 || len(s) > 8 {
			t.Fatalf("bad length %d", len(s))
		}
		m := sp.Mutate(rng, s)
		if len(m) < 2 || len(m) > 9 { // one edit can change length by 1
			t.Fatalf("mutation length %d from %d", len(m), len(s))
		}
		for _, g := range m {
			if g < 0 || g >= 10 {
				t.Fatalf("gene out of vocab: %d", g)
			}
		}
	}
}

// Regression: the tuner's clamp used to pad short sequences with pass index 0,
// silently injecting repeated copies of whichever pass is first in the
// vocabulary. Padding must resample from the RNG instead.
func TestClampSeqPadsWithoutPassZeroBias(t *testing.T) {
	sp := SeqSpace{Vocab: 40, MinLen: 8, MaxLen: 12}
	rng := rand.New(rand.NewSource(1))
	out := sp.Clamp([]int{5}, rng)
	if len(out) != sp.MinLen {
		t.Fatalf("len = %d, want %d", len(out), sp.MinLen)
	}
	if out[0] != 5 {
		t.Fatalf("existing genes rewritten: %v", out)
	}
	zeros := 0
	for _, g := range out[1:] {
		if g < 0 || g >= sp.Vocab {
			t.Fatalf("pad gene %d outside vocabulary", g)
		}
		if g == 0 {
			zeros++
		}
	}
	if zeros == len(out)-1 {
		t.Fatalf("padding still biased to pass 0: %v", out)
	}
	// Truncation side must still clamp to MaxLen.
	long := make([]int, 30)
	if got := sp.Clamp(long, rng); len(got) != sp.MaxLen {
		t.Fatalf("truncated len = %d, want %d", len(got), sp.MaxLen)
	}
}

func TestDESConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sp := SeqSpace{Vocab: 6, MinLen: 4, MaxLen: 10}
	target := []int{1, 2, 3, 4, 5}
	obj := seqObjective(target)
	d := NewDES(sp, rng)
	best := math.Inf(1)
	for it := 0; it < 800; it++ {
		for _, s := range d.Ask(2) {
			y := obj(s)
			d.Tell(s, y)
			if y < best {
				best = y
			}
		}
	}
	if best > 0.25 {
		t.Fatalf("DES did not approach target: best = %v", best)
	}
	if _, _, ok := d.Best(); !ok {
		t.Fatal("no incumbent")
	}
}

func TestSeqGABeatsRandom(t *testing.T) {
	sp := SeqSpace{Vocab: 8, MinLen: 4, MaxLen: 12}
	target := []int{7, 1, 3, 3, 0, 2}
	obj := seqObjective(target)
	run := func(opt SeqOptimizer, seed int64) float64 {
		best := math.Inf(1)
		for it := 0; it < 600; it++ {
			for _, s := range opt.Ask(2) {
				y := obj(s)
				opt.Tell(s, y)
				if y < best {
					best = y
				}
			}
		}
		return best
	}
	bestGA := run(NewSeqGA(sp, 30, rand.New(rand.NewSource(9))), 9)
	bestR := run(&SeqRandom{Space: sp, Rng: rand.New(rand.NewSource(9))}, 9)
	if bestGA >= bestR {
		t.Fatalf("SeqGA (%v) should beat random (%v)", bestGA, bestR)
	}
}

func TestDESSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sp := SeqSpace{Vocab: 5, MinLen: 2, MaxLen: 6}
	d := NewDES(sp, rng)
	d.Seed([]int{1, 2, 3}, 0.5)
	s, y, ok := d.Best()
	if !ok || y != 0.5 || len(s) != 3 {
		t.Fatal("seed not adopted")
	}
	// Worse sample must not displace the incumbent.
	d.Tell([]int{0, 0}, 0.9)
	if _, y2, _ := d.Best(); y2 != 0.5 {
		t.Fatal("worse sample displaced incumbent")
	}
}

func TestSynthFunctionsKnownMinima(t *testing.T) {
	for _, f := range synth.All() {
		x := make([]float64, 5)
		if f.Name == "Rosenbrock" {
			for i := range x {
				x[i] = 1
			}
		}
		v := f.Eval(x)
		if math.Abs(v) > 1e-9 {
			t.Fatalf("%s minimum not at expected point: %v", f.Name, v)
		}
	}
	if _, ok := synth.ByName("Ackley"); !ok {
		t.Fatal("ByName failed")
	}
}
