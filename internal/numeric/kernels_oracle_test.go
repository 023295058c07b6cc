package numeric

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracles: the loops CholeskyInto, SolveUpperTInto and the GP's inverse
// ran before they were re-ordered for speed. The shipped kernels must
// reproduce them bit for bit (DESIGN.md "Exact kernels").

// choleskyOracle is the one-column-at-a-time factorisation.
func choleskyOracle(dst, a *Matrix) error {
	n := a.Rows
	for i := 0; i < n; i++ {
		li := dst.Row(i)
		ai := a.Row(i)
		for j := 0; j <= i; j++ {
			sum := ai[j]
			lj := dst.Row(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
		for j := i + 1; j < n; j++ {
			li[j] = 0
		}
	}
	return nil
}

// solveUpperTOracle walks column i of L through Matrix.At.
func solveUpperTOracle(l *Matrix, b, x []float64) {
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
}

// CholSolveMatrix solves A·X = B column-by-column using the factor L; with
// B = I it is the inverse the GP's gradient used to be handed.
func CholSolveMatrix(l *Matrix, b *Matrix) *Matrix {
	out := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		CholSolveInto(l, col, col)
		for i := 0; i < b.Rows; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out
}

// inverseOracle is CholSolveMatrix(l, I) with the At-walking
// back-substitution: the old inverse at its old cost, for the benchmark.
func inverseOracle(l *Matrix) *Matrix {
	n := l.Rows
	out := NewMatrix(n, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		SolveLowerInto(l, col, col)
		solveUpperTOracle(l, col, col)
		for i := 0; i < n; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out
}

// kernelSizes sit on both sides of every block edge: the 4-column groups of
// CholeskyInto and the ShardSpan-column strips of the inverse.
var kernelSizes = []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 150}

// randKernelMatrix is an RBF Gram matrix of n random points plus shift on
// the diagonal: far worse conditioned than randSPD for a small shift, which
// is what the GP hands these kernels.
func randKernelMatrix(rng *rand.Rand, n int, shift float64) *Matrix {
	pts := make([][3]float64, n)
	for i := range pts {
		pts[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r2 := 0.0
			for d := 0; d < 3; d++ {
				dx := pts[i][d] - pts[j][d]
				r2 += dx * dx
			}
			a.Set(i, j, math.Exp(-0.5*r2))
		}
	}
	a.AddDiag(shift)
	return a
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKernelsAgainstOracles factors a with both Cholesky loops and, when it
// is positive definite, compares the inverse's lower triangle and the
// back-substitution with theirs, bitwise, at every worker count.
func checkKernelsAgainstOracles(t *testing.T, tag string, a *Matrix) {
	t.Helper()
	n := a.Rows
	want := NewMatrix(n, n)
	wantErr := choleskyOracle(want, a)
	got := NewMatrix(n, n)
	for i := range got.Data {
		got.Data[i] = math.NaN() // must be fully overwritten
	}
	gotErr := CholeskyInto(got, a)
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("%s: CholeskyInto error %v, oracle %v", tag, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: factor differs at (%d,%d): %g vs %g", tag, i/n, i%n, got.Data[i], want.Data[i])
		}
	}

	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 2.5
	}
	xw, xg := make([]float64, n), make([]float64, n)
	solveUpperTOracle(want, b, xw)
	SolveUpperTInto(want, b, xg)
	for i := range xw {
		if !sameBits(xg[i], xw[i]) {
			t.Fatalf("%s: SolveUpperTInto differs at %d", tag, i)
		}
	}

	eye := NewMatrix(n, n)
	eye.AddDiag(1)
	invWant := CholSolveMatrix(want, eye)
	invAt := inverseOracle(want)
	for i := range invWant.Data {
		if !sameBits(invWant.Data[i], invAt.Data[i]) {
			t.Fatalf("%s: the two inverse oracles disagree at %d", tag, i)
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		inv := NewMatrix(n, n)
		for i := range inv.Data {
			inv.Data[i] = math.NaN()
		}
		CholInverseLowerInto(want, inv, workers)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if !sameBits(inv.At(i, j), invWant.At(i, j)) {
					t.Fatalf("%s workers=%d: inverse differs at (%d,%d): %g vs %g",
						tag, workers, i, j, inv.At(i, j), invWant.At(i, j))
				}
			}
		}
	}
}

func TestCholKernelsMatchOracle(t *testing.T) {
	for _, n := range kernelSizes {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		checkKernelsAgainstOracles(t, fmt.Sprintf("spd/n%d", n), randSPD(rng, n))
		checkKernelsAgainstOracles(t, fmt.Sprintf("gram/n%d", n), randKernelMatrix(rng, n, 1e-6))
	}
}

// A matrix that is not positive definite fails at the same pivot with the
// same error, and the jitter retry adds the same amount and lands on the same
// factor as the oracle driven through the same schedule.
func TestCholeskyFailureAndJitterMatchOracle(t *testing.T) {
	for _, n := range kernelSizes {
		if n < 2 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(200 + n)))
		// Rank-deficient Gram matrix: the last point repeats the first, and
		// nothing on the diagonal separates them.
		a := randKernelMatrix(rng, n, 0)
		copy(a.Row(n-1), a.Row(0))
		for i := 0; i < n; i++ {
			a.Set(i, n-1, a.At(i, 0))
		}
		a.Set(n-1, n-1, a.At(0, 0))
		indef := a.Clone()
		indef.Set(n-1, n-1, -1)
		if err := CholeskyInto(NewMatrix(n, n), indef); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("n=%d: indefinite input gave %v", n, err)
		}
		checkKernelsAgainstOracles(t, fmt.Sprintf("indef/n%d", n), indef)

		wantL := NewMatrix(n, n)
		work := a.Clone()
		wantAdded, tries := 0.0, 0
		for ; tries <= 8; tries++ {
			if choleskyOracle(wantL, work) == nil {
				break
			}
			step := 1e-10 * math.Pow(10, float64(tries))
			work.AddDiag(step)
			wantAdded += step
		}
		if tries > 8 {
			t.Fatalf("n=%d: oracle never factored", n)
		}
		gotL := NewMatrix(n, n)
		added, err := CholeskyWithJitterInto(gotL, a.Clone(), 1e-10, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(added, wantAdded) {
			t.Fatalf("n=%d: jitter %g, oracle %g", n, added, wantAdded)
		}
		for i := range gotL.Data {
			if !sameBits(gotL.Data[i], wantL.Data[i]) {
				t.Fatalf("n=%d: jittered factor differs at %d", n, i)
			}
		}
	}
}

// FuzzCholKernelsMatchOracle drives random sizes, seeds and diagonal shifts
// (down to matrices that fail to factor) through both Cholesky loops and both
// inverses.
func FuzzCholKernelsMatchOracle(f *testing.F) {
	f.Add(uint8(1), int64(1), uint8(0))
	f.Add(uint8(17), int64(2), uint8(6))
	f.Add(uint8(33), int64(3), uint8(12))
	f.Add(uint8(64), int64(4), uint8(16))
	f.Fuzz(func(t *testing.T, size uint8, seed int64, shiftExp uint8) {
		n := 1 + int(size)%96
		rng := rand.New(rand.NewSource(seed))
		var a *Matrix
		if shiftExp%2 == 0 {
			a = randKernelMatrix(rng, n, math.Pow(10, -float64(shiftExp%18)))
		} else {
			a = randSPD(rng, n)
			a.AddDiag(-float64(shiftExp%18) * float64(n) / 16)
		}
		checkKernelsAgainstOracles(t, "fuzz", a)
	})
}

var benchSink *Matrix

// BenchmarkCholInverse contrasts the full column-solve inverse the GP's
// gradient used to compute with the lower-triangle one it computes now, one
// thread, at the size sha_long's last refits have. CI gates the ratio.
func BenchmarkCholInverse(b *testing.B) {
	const n = 160
	l, err := Cholesky(randKernelMatrix(rand.New(rand.NewSource(1)), n, 1e-3))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = inverseOracle(l)
		}
	})
	b.Run("lower", func(b *testing.B) {
		inv := NewMatrix(n, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			CholInverseLowerInto(l, inv, 1)
		}
	})
}

// BenchmarkCholesky is the factorisation at the same size, against the
// one-column-at-a-time loop.
func BenchmarkCholesky(b *testing.B) {
	const n = 160
	a := randKernelMatrix(rand.New(rand.NewSource(1)), n, 1e-3)
	dst := NewMatrix(n, n)
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := choleskyOracle(dst, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interleaved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := CholeskyInto(dst, a); err != nil {
				b.Fatal(err)
			}
		}
	})
}
