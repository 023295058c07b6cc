package numeric

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestCholUpdateAppendMatchesFullFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		a := randSPD(rng, n+1)
		sub := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			copy(sub.Row(i), a.Row(i)[:n])
		}
		l, err := Cholesky(sub)
		if err != nil {
			t.Fatalf("trial %d: cholesky: %v", trial, err)
		}
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = a.At(i, n)
		}
		ext, err := CholUpdateAppend(l, col, a.At(n, n), 0)
		if err != nil {
			t.Fatalf("trial %d: append: %v", trial, err)
		}
		full, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: full cholesky: %v", trial, err)
		}
		for i := 0; i <= n; i++ {
			for j := 0; j <= i; j++ {
				got, want := ext.At(i, j), full.At(i, j)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("trial %d: L'[%d][%d] = %g, full factor has %g", trial, i, j, got, want)
				}
				if i < n && got != want {
					t.Fatalf("trial %d: retained row %d not bit-identical", trial, i)
				}
			}
		}
	}
}

func TestCholUpdateAppendRejectsNonPD(t *testing.T) {
	eye := NewMatrix(2, 2)
	eye.AddDiag(1)
	l, err := Cholesky(eye)
	if err != nil {
		t.Fatal(err)
	}
	// Schur complement = 0.5 - 1 < 0.
	if _, err := CholUpdateAppend(l, []float64{1, 0}, 0.5, 0); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	// Schur complement = 2 - 1 = 1 > 0 but below a minSchur floor of 1.5.
	if _, err := CholUpdateAppend(l, []float64{1, 0}, 2, 1.5); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite under minSchur floor, got %v", err)
	}
	if _, err := CholUpdateAppend(l, []float64{1, 0}, 2, 0); err != nil {
		t.Fatalf("valid append failed: %v", err)
	}
}

func TestSolveIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 33)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 33)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	wantLower := SolveLower(l, b)
	wantUpper := SolveUpperT(l, b)
	wantSolve := SolveUpperT(l, SolveLower(l, b))

	x := make([]float64, 33)
	SolveLowerInto(l, b, x)
	for i := range x {
		if x[i] != wantLower[i] {
			t.Fatalf("SolveLowerInto[%d] = %g want %g", i, x[i], wantLower[i])
		}
	}
	SolveUpperTInto(l, b, x)
	for i := range x {
		if x[i] != wantUpper[i] {
			t.Fatalf("SolveUpperTInto[%d] = %g want %g", i, x[i], wantUpper[i])
		}
	}
	// Aliased (in-place) solve.
	copy(x, b)
	CholSolveInto(l, x, x)
	for i := range x {
		if x[i] != wantSolve[i] {
			t.Fatalf("CholSolveInto[%d] = %g want %g", i, x[i], wantSolve[i])
		}
	}
}

func TestSolveLowerBatchBitIdenticalToColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, 29)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Cover both the narrow-block fast path (q <= ShardSpan) and the generic
	// wide path.
	for _, q := range []int{1, 9, ShardSpan, ShardSpan + 1, 33} {
		b := NewMatrix(29, q)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		want := make([][]float64, q)
		col := make([]float64, 29)
		for j := 0; j < q; j++ {
			for i := 0; i < 29; i++ {
				col[i] = b.At(i, j)
			}
			want[j] = SolveLower(l, col)
		}
		SolveLowerBatch(l, b)
		for j := 0; j < q; j++ {
			for i := 0; i < 29; i++ {
				if b.At(i, j) != want[j][i] {
					t.Fatalf("q=%d: batch solve column %d row %d = %g want %g", q, j, i, b.At(i, j), want[j][i])
				}
			}
		}
	}
}

func TestCholeskyIntoAndJitterMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSPD(rng, 21)
	want, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewMatrix(21, 21)
	for i := range dst.Data {
		dst.Data[i] = math.NaN() // must be fully overwritten
	}
	if err := CholeskyInto(dst, a); err != nil {
		t.Fatal(err)
	}
	for i := range dst.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("CholeskyInto differs at %d: %g vs %g", i, dst.Data[i], want.Data[i])
		}
	}

	// A matrix needing jitter: PSD but singular.
	sing := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			sing.Set(i, j, 1) // rank one
		}
	}
	wantL, wantAdded, err := CholeskyWithJitter(sing, 1e-10, 8)
	if err != nil {
		t.Fatal(err)
	}
	work := sing.Clone()
	got := NewMatrix(4, 4)
	added, err := CholeskyWithJitterInto(got, work, 1e-10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if added != wantAdded {
		t.Fatalf("jitter added %g want %g", added, wantAdded)
	}
	for i := range got.Data {
		if got.Data[i] != wantL.Data[i] {
			t.Fatalf("jittered factor differs at %d", i)
		}
	}
}

// The inverse defines the lower triangle only (its one reader, the GP's
// gradient loop, stops at the diagonal): every worker count produces the bits
// of the full column solve there. Sizes and the Cholesky loop itself are
// covered by TestCholKernelsMatchOracle.
func TestCholInverseIntoWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSPD(rng, 37)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	eye := NewMatrix(37, 37)
	eye.AddDiag(1)
	want := CholSolveMatrix(l, eye)
	for _, workers := range []int{1, 3, 8} {
		inv := NewMatrix(37, 37)
		CholInverseLowerInto(l, inv, workers)
		for i := 0; i < 37; i++ {
			for j := 0; j <= i; j++ {
				if inv.At(i, j) != want.At(i, j) {
					t.Fatalf("workers=%d: inverse differs at (%d,%d)", workers, i, j)
				}
			}
		}
	}
}

func TestParallelForCoversAllShards(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		n := 123
		hits := make([]int32, NumShards(n))
		covered := make([]bool, n)
		ParallelFor(workers, NumShards(n), func(s int) {
			hits[s]++
			lo, hi := ShardBounds(n, s)
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
		})
		for s, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: shard %d run %d times", workers, s, h)
			}
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("workers=%d: index %d not covered", workers, i)
			}
		}
	}
}

// No shards means no calls; a single shard runs once, with index 0, whatever
// the worker count.
func TestParallelForEmptyAndSingle(t *testing.T) {
	ParallelFor(8, 0, func(int) { t.Fatal("fn called for 0 shards") })
	ParallelFor(8, -1, func(int) { t.Fatal("fn called for negative shards") })
	var got []int
	ParallelFor(8, 1, func(s int) { got = append(got, s) })
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("single shard ran %v, want [0]", got)
	}
}

// One worker runs inline in index order on the caller's goroutine.
func TestParallelForSerialModeRunsInIndexOrder(t *testing.T) {
	for _, c := range []struct{ workers, shards int }{{1, 5}, {0, 5}, {-2, 5}} {
		var got []int
		ParallelFor(c.workers, c.shards, func(s int) { got = append(got, s) })
		if len(got) != c.shards {
			t.Fatalf("%+v: ran %v", c, got)
		}
		for i, s := range got {
			if s != i {
				t.Fatalf("%+v: serial order broken: %v", c, got)
			}
		}
	}
}

func TestWorkersResolvesZeroToGOMAXPROCS(t *testing.T) {
	for n, want := range map[int]int{0: runtime.GOMAXPROCS(0), -3: runtime.GOMAXPROCS(0), 1: 1, 33: 33} {
		if got := Workers(n); got != want {
			t.Fatalf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
}

// ParallelFor is the repository's one data-parallel fan-out (core.RunSpecs
// and the evaluator's datasets run on it): a panic in one shard reaches the caller
// as the value it was raised with, after every worker has returned, and the
// workers that did not panic finish the remaining shards.
func TestParallelForPanicReachesCaller(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		const shards = 64
		var ran atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != any(boom) {
					t.Fatalf("workers=%d: recovered %v, want the panic value itself", workers, r)
				}
			}()
			ParallelFor(workers, shards, func(s int) {
				if s == shards-1 {
					panic(boom)
				}
				ran.Add(1)
			})
			t.Fatalf("workers=%d: panic did not propagate", workers)
		}()
		if n := ran.Load(); n != shards-1 {
			t.Fatalf("workers=%d: %d of %d healthy shards ran before the panic was re-raised", workers, n, shards-1)
		}
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewMatrix(9, 13)
	b := NewMatrix(13, 6)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	want := a.Mul(b)
	out := NewMatrix(9, 6)
	for i := range out.Data {
		out.Data[i] = 99 // stale contents must be cleared
	}
	MulInto(out, a, b)
	for i := range out.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("MulInto differs at %d", i)
		}
	}
}
