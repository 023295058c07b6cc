package numeric

import (
	"fmt"
	"math"
)

// CholUpdateAppend extends the lower-triangular Cholesky factor L of an n×n
// matrix A to the factor of the (n+1)×(n+1) matrix obtained by bordering A
// with the column col and diagonal element diag:
//
//	A' = [ A    col ]      L' = [ L    0 ]
//	     [ colᵀ diag]           [ cᵀ   s ]
//
// where c = L⁻¹·col and s = sqrt(diag − c·c). Because Cholesky computes row i
// only from rows < i, the first n rows of L' equal L exactly, so appending is
// bit-identical to refactorising the bordered matrix for those rows and costs
// O(n²) instead of O(n³).
//
// The update fails with ErrNotPositiveDefinite when the Schur complement
// diag − c·c is not greater than minSchur. Pass minSchur = 0 for the pure
// positive-definiteness test; callers that need a conditioning guard (e.g. a
// GP appending a near-duplicate input under tiny noise) pass a small positive
// floor such as diag·1e-12 to force a jittered refactorisation instead of
// accepting a factor with a catastrophically small pivot.
func CholUpdateAppend(l *Matrix, col []float64, diag, minSchur float64) (*Matrix, error) {
	n := l.Rows
	if l.Cols != n {
		panic("numeric: CholUpdateAppend of non-square factor")
	}
	if len(col) != n {
		panic(fmt.Sprintf("numeric: CholUpdateAppend column length %d != %d", len(col), n))
	}
	out := NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(out.Row(i)[:i+1], l.Row(i)[:i+1])
	}
	c := out.Row(n)[:n]
	copy(c, col)
	SolveLowerInto(l, c, c)
	s := diag - Dot(c, c)
	if s <= minSchur || math.IsNaN(s) {
		return nil, ErrNotPositiveDefinite
	}
	out.Data[n*out.Cols+n] = math.Sqrt(s)
	return out, nil
}

// SolveLowerInto solves L·x = b for lower-triangular L without allocating.
// x must have length n; x and b may be the same slice.
func SolveLowerInto(l *Matrix, b, x []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		sum := b[i]
		li := l.Row(i)
		for k := 0; k < i; k++ {
			sum -= li[k] * x[k]
		}
		x[i] = sum / li[i]
	}
}

// SolveUpperTInto solves Lᵀ·x = b given the lower-triangular factor L,
// without allocating. x must have length n; x and b may be the same slice.
func SolveUpperTInto(l *Matrix, b, x []float64) {
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
}

// CholSolveInto solves A·x = b using the factor L without allocating.
// x and b may be the same slice.
func CholSolveInto(l *Matrix, b, x []float64) {
	SolveLowerInto(l, b, x)
	SolveUpperTInto(l, x, x)
}

// SolveLowerBatch solves L·V = B for every column of B simultaneously,
// overwriting B with V. The i-k-j loop order streams each row of L once
// across all right-hand sides instead of once per column, which is what makes
// batched posterior evaluation cheap. Each column sees exactly the arithmetic
// SolveLower would perform (same subtraction order, same division), so the
// result is bit-identical to solving the columns one at a time.
func SolveLowerBatch(l *Matrix, b *Matrix) {
	if l.Rows != b.Rows {
		panic(fmt.Sprintf("numeric: SolveLowerBatch shape mismatch %dx%d vs %dx%d", l.Rows, l.Cols, b.Rows, b.Cols))
	}
	n := l.Rows
	q := b.Cols
	if q <= ShardSpan {
		solveLowerBlock(l, b, n, q)
		return
	}
	for i := 0; i < n; i++ {
		li := l.Row(i)
		vi := b.Row(i)
		for k := 0; k < i; k++ {
			a := li[k]
			if a == 0 {
				continue
			}
			vk := b.Row(k)
			for j := range vi {
				vi[j] -= a * vk[j]
			}
		}
		d := li[i]
		for j := range vi {
			vi[j] /= d
		}
	}
}

// solveLowerBlock is the narrow-block fast path: the running row lives in a
// stack-local accumulator so the inner loop never stores to (or re-loads
// from) the heap, and pairs of factor rows are fused per pass — with the two
// subtractions kept sequential, so each column's arithmetic order matches
// SolveLower exactly.
func solveLowerBlock(l, b *Matrix, n, q int) {
	var acc [ShardSpan]float64
	for i := 0; i < n; i++ {
		li := l.Row(i)
		vi := b.Row(i)
		for j := 0; j < q; j++ {
			acc[j] = vi[j]
		}
		k := 0
		for ; k+1 < i; k += 2 {
			a1, a2 := li[k], li[k+1]
			vk1, vk2 := b.Row(k), b.Row(k+1)
			for j := 0; j < q; j++ {
				t := acc[j] - a1*vk1[j]
				acc[j] = t - a2*vk2[j]
			}
		}
		if k < i {
			a := li[k]
			vk := b.Row(k)
			for j := 0; j < q; j++ {
				acc[j] -= a * vk[j]
			}
		}
		d := li[i]
		for j := 0; j < q; j++ {
			vi[j] = acc[j] / d
		}
	}
}

// CholeskyInto computes the lower-triangular factor of a into dst, reusing
// dst's storage. Only a's lower triangle is read; dst must be n×n and must
// not alias a. The strict upper triangle of dst is zeroed.
func CholeskyInto(dst, a *Matrix) error {
	n := a.Rows
	if a.Cols != n || dst.Rows != n || dst.Cols != n {
		panic("numeric: CholeskyInto shape mismatch")
	}
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

// CholeskyWithJitterInto factors a into dst, adding diagonal jitter (growing
// ×10 each try) until the factorisation succeeds, and returns the jitter
// used. It perturbs a's diagonal in place by that jitter — callers treat a as
// scratch; CholeskyWithJitter is the form that leaves a alone.
func CholeskyWithJitterInto(dst, a *Matrix, jitter float64, maxTries int) (float64, error) {
	added := 0.0
	for try := 0; try <= maxTries; try++ {
		if err := CholeskyInto(dst, a); err == nil {
			return added, nil
		}
		step := jitter * math.Pow(10, float64(try))
		a.AddDiag(step)
		added += step
	}
	return added, ErrNotPositiveDefinite
}

// CholInverseInto fills inv with (L·Lᵀ)⁻¹ by solving one unit vector per
// column. Columns are independent, so they are sharded across workers with
// results bit-identical to CholSolveMatrix(l, I) for every worker count.
func CholInverseInto(l *Matrix, inv *Matrix, workers int) {
	n := l.Rows
	if inv.Rows != n || inv.Cols != n {
		panic("numeric: CholInverseInto shape mismatch")
	}
	ParallelFor(workers, NumShards(n), func(s int) {
		lo, hi := ShardBounds(n, s)
		col := make([]float64, n)
		for j := lo; j < hi; j++ {
			for i := range col {
				col[i] = 0
			}
			col[j] = 1
			CholSolveInto(l, col, col)
			for i := 0; i < n; i++ {
				inv.Set(i, j, col[i])
			}
		}
	})
}

// MulInto computes out = a·b reusing out's storage (out must not alias a or
// b). The i-k-j loop order keeps all three operands streaming row-major.
func MulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("numeric: MulInto shape mismatch %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		oi := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			v := ri[k]
			if v == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += v * bk[j]
			}
		}
	}
}
