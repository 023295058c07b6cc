package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Mul(b.T())
	a.AddDiag(float64(n)) // make well conditioned
	return a
}

func TestMatrixMul(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := a.Mul(b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("mul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatrixMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randSPD(rng, 5)
	v := SampleNormalVec(rng, 5)
	b := NewMatrix(5, 1)
	for i, x := range v {
		b.Set(i, 0, x)
	}
	got := a.MulVec(v)
	want := a.Mul(b)
	for i := range got {
		if !almostEq(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("mulvec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 12; n++ {
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := l.Mul(l.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(rec.At(i, j), a.At(i, j), 1e-8) {
					t.Fatalf("n=%d: rec[%d,%d]=%v want %v", n, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
}

func TestCholeskyWithJitterRecovers(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 1, 1, 1}) // singular
	l, jit, err := CholeskyWithJitter(a, 1e-8, 10)
	if err != nil {
		t.Fatalf("jittered cholesky failed: %v", err)
	}
	if jit <= 0 {
		t.Fatalf("expected positive jitter, got %v", jit)
	}
	if l.At(0, 0) <= 0 {
		t.Fatal("invalid factor")
	}
}

func TestCholSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSPD(rng, 8)
	x := SampleNormalVec(rng, 8)
	b := a.MulVec(x)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(b))
	CholSolveInto(l, b, got)
	for i := range x {
		if !almostEq(got[i], x[i], 1e-8) {
			t.Fatalf("solve[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestCholSolveMatrixMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 6)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := NewMatrix(6, 3)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	x := CholSolveMatrix(l, b)
	for j := 0; j < 3; j++ {
		col := make([]float64, 6)
		for i := range col {
			col[i] = b.At(i, j)
		}
		want := col
		CholSolveInto(l, col, want)
		for i := range want {
			if !almostEq(x.At(i, j), want[i], 1e-10) {
				t.Fatalf("col %d row %d mismatch", j, i)
			}
		}
	}
}

func TestLogDetFromChol(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{4, 0, 0, 9})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(LogDetFromChol(l), math.Log(36), 1e-12) {
		t.Fatalf("logdet = %v, want %v", LogDetFromChol(l), math.Log(36))
	}
}

func TestSolveTriangularProperty(t *testing.T) {
	// Property: SolveLower then multiplying back recovers b.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		b := SampleNormalVec(rng, n)
		x := SolveLower(l, b)
		got := l.MulVec(x)
		for i := range b {
			if !almostEq(got[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("norm wrong")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp wrong")
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatal("transpose wrong")
	}
}
