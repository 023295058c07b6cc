package gp

import (
	"math"
	"math/rand"
	"testing"
)

func benchData(n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(42))
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		Y[i] = math.Sin(4*X[i][0]) + X[i][1%d] + 0.1*rng.NormFloat64()
	}
	return X, Y
}

func benchFit(b *testing.B, X [][]float64, Y []float64, workers int) *GP {
	b.Helper()
	opts := DefaultOptions()
	opts.AdamSteps = 0
	opts.Workers = workers
	g, err := Fit(X, Y, opts)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkGPFit contrasts the two ways the tuner can absorb one new
// observation on a non-refit iteration: the old full warm refit (O(n³)) and
// the incremental Append (O(n²)).
func BenchmarkGPFit(b *testing.B) {
	const n, d = 256, 8
	X, Y := benchData(n, d)

	b.Run("refit-n256", func(b *testing.B) {
		base := benchFit(b, X[:n-1], Y[:n-1], 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := frozenFit(base, X, Y, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append-n256", func(b *testing.B) {
		base := benchFit(b, X[:n-1], Y[:n-1], 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := base.Clone()
			b.StartTimer()
			if err := g.Append(X[n-1], Y[n-1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGPAppend(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run("n"+itoa(n), func(b *testing.B) {
			X, Y := benchData(n, 8)
			base := benchFit(b, X[:n-1], Y[:n-1], 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := base.Clone()
				b.StartTimer()
				if err := g.Append(X[n-1], Y[n-1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	const n, d, q = 256, 8, 512
	X, Y := benchData(n, d)
	queries, _ := benchData(q, d)
	mu := make([]float64, q)
	sigma := make([]float64, q)

	b.Run("single-loop", func(b *testing.B) {
		g := benchFit(b, X, Y, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, x := range queries {
				mu[j], sigma[j] = g.PredictTransformed(x)
			}
		}
	})
	for _, workers := range []int{1, 8} {
		b.Run("batch-w"+itoa(workers), func(b *testing.B) {
			g := benchFit(b, X, Y, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.PredictBatch(queries, mu, sigma)
			}
		})
	}
}

// BenchmarkGPFitAdam measures a full hyperparameter fit (gradient steps
// included): a small one serial vs parallel, exercising the sharded lmlGrad,
// and one the size sha_long's last refits have (n = 150, d = 55, the default
// 40 steps on 2 workers) — the case whose allocations and bytes CI gates —
// beside the frozen refit of the same size (no Adam step), whose bytes CI
// gates too.
func BenchmarkGPFitAdam(b *testing.B) {
	for _, c := range []struct {
		name           string
		n, d           int
		steps, workers int
	}{
		{"w1", 128, 8, 5, 1},
		{"w8", 128, 8, 5, 8},
		{"n150-d55-s40-w2", 150, 55, 40, 2},
		{"n150-d55-s0-w2", 150, 55, 0, 2},
	} {
		X, Y := benchData(c.n, c.d)
		b.Run(c.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.AdamSteps = c.steps
			opts.Workers = c.workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(X, Y, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
