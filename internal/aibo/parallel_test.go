package aibo

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/heuristic"
	"repro/internal/synth"
)

// TestAIBOWorkersDeterminism pins the tentpole guarantee: the parallel
// surrogate (sharded fit kernels, batched screening, fanned-out acquisition
// maximisation) produces the exact trace of the serial one.
func TestAIBOWorkersDeterminism(t *testing.T) {
	f := synth.Rastrigin()
	b := boxFor(f, 4)
	base := fastOpts()
	base.TopN = 3
	var ref *Result
	for _, w := range []int{1, 8} {
		o := base
		o.Workers = w
		res, err := Minimize(f.Eval, b, 30, o, 9)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.BestY != ref.BestY {
			t.Fatalf("workers=%d: BestY %v != serial %v", w, res.BestY, ref.BestY)
		}
		for i := range ref.History {
			if res.History[i] != ref.History[i] {
				t.Fatalf("workers=%d: History[%d] = %v != serial %v", w, i, res.History[i], ref.History[i])
			}
		}
		for i := range ref.BestX {
			if res.BestX[i] != ref.BestX[i] {
				t.Fatalf("workers=%d: BestX[%d] differs", w, i)
			}
		}
		for i := range ref.Diags {
			if res.Diags[i].Winner != ref.Diags[i].Winner {
				t.Fatalf("workers=%d: Diags[%d].Winner %q != serial %q", w, i, res.Diags[i].Winner, ref.Diags[i].Winner)
			}
		}
	}
}

func TestTuRBOWorkersDeterminism(t *testing.T) {
	f := synth.Ackley()
	b := boxFor(f, 5)
	base := DefaultTuRBOOptions()
	base.InitSamples = 10
	base.Candidates = 60
	base.GPOpts.AdamSteps = 15
	base.RefitEvery = 3
	var ref *Result
	for _, w := range []int{1, 8} {
		o := base
		o.Workers = w
		res, err := TuRBOMinimize(f.Eval, b, 30, o, 4)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.BestY != ref.BestY {
			t.Fatalf("workers=%d: BestY %v != serial %v", w, res.BestY, ref.BestY)
		}
		for i := range ref.History {
			if res.History[i] != ref.History[i] {
				t.Fatalf("workers=%d: History[%d] differs", w, i)
			}
		}
	}
}

func screenFixture(t testing.TB, n, d int) (*gp.GP, acq.Config) {
	rng := rand.New(rand.NewSource(31))
	f := synth.Griewank()
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		Y[i] = f.Eval(X[i])
	}
	o := gp.DefaultOptions()
	o.AdamSteps = 10
	model, err := gp.Fit(X, Y, o)
	if err != nil {
		t.Fatal(err)
	}
	return model, acq.Config{Kind: acq.UCB, Beta: 1.96, Best: model.TransformY(Y[0])}
}

// TestScreenTopMatchesSort checks the heap screen against a sort-based
// reference: with all AF values distinct (guaranteed by the continuous
// fixture), the survivors are exactly the topN candidates by AF, returned in
// arrival order.
func TestScreenTopMatchesSort(t *testing.T) {
	model, cfg := screenFixture(t, 40, 3)
	rng := rand.New(rand.NewSource(77))
	raw := make([][]float64, 120)
	for i := range raw {
		raw[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	af := make([]float64, len(raw))
	for i, x := range raw {
		af[i] = cfg.Value(model, x)
	}
	for _, topN := range []int{1, 3, 7, len(raw), len(raw) + 5} {
		idx := make([]int, len(raw))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return af[idx[a]] > af[idx[b]] })
		keep := topN
		if keep > len(raw) {
			keep = len(raw)
		}
		want := append([]int(nil), idx[:keep]...)
		sort.Ints(want)

		got := screenTop(model, cfg, raw, topN)
		if len(got) != keep {
			t.Fatalf("topN=%d: %d survivors, want %d", topN, len(got), keep)
		}
		for i, x := range got {
			if &x[0] != &raw[want[i]][0] {
				t.Fatalf("topN=%d: survivor %d is not raw[%d]", topN, i, want[i])
			}
		}
	}
}

// BenchmarkAcqMaximize times the TopN×strategies gradient-ascent restarts of
// one AIBO iteration, serial vs fanned out.
func BenchmarkAcqMaximize(b *testing.B) {
	model, cfg := screenFixture(b, 128, 8)
	box := make(heuristic.Bounds, 8)
	for i := range box {
		box[i] = [2]float64{0, 1}
	}
	rng := rand.New(rand.NewSource(2))
	starts := make([][]float64, 30)
	for i := range starts {
		starts[i] = box.Sample(rng)
	}
	for _, w := range []int{1, 8} {
		b.Run("w"+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				maximizeBatch(model, cfg, box, starts, 20, w)
			}
		})
	}
}
