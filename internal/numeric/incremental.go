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
// Row i of Lᵀ is column i of L, walked through the raw storage one stride at
// a time in ascending k.
func SolveUpperTInto(l *Matrix, b, x []float64) {
	n, stride, data := l.Rows, l.Cols, l.Data
	x = x[:n]
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		at := (i+1)*stride + i
		for _, xk := range x[i+1:] {
			sum -= data[at] * xk
			at += stride
		}
		x[i] = sum / data[i*stride+i]
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
	var accBuf [ShardSpan]float64
	acc := accBuf[:q]
	for i := 0; i < n; i++ {
		li := l.Row(i)
		vi := b.Row(i)
		copy(acc, vi)
		k := 0
		for ; k+1 < i; k += 2 {
			subRowPair(acc, li[k], li[k+1], b.Row(k), b.Row(k+1))
		}
		if k < i {
			subRow(acc, li[k], b.Row(k))
		}
		divRowInto(vi, acc, li[i])
	}
}

// subRowPair subtracts a1·y1 and then a2·y2 from acc, element by element and
// in that order: two steps of a triangular solve's k-loop for len(acc)
// right-hand sides at once.
func subRowPair(acc []float64, a1, a2 float64, y1, y2 []float64) {
	y1, y2 = y1[:len(acc)], y2[:len(acc)]
	for c := range acc {
		t := acc[c] - a1*y1[c]
		acc[c] = t - a2*y2[c]
	}
}

// subRow is one such step.
func subRow(acc []float64, a float64, y []float64) {
	y = y[:len(acc)]
	for c := range acc {
		acc[c] -= a * y[c]
	}
}

// divRowInto stores acc/d in dst.
func divRowInto(dst, acc []float64, d float64) {
	dst = dst[:len(acc)]
	for c := range acc {
		dst[c] = acc[c] / d
	}
}

// CholeskyInto computes the lower-triangular factor of a into dst, reusing
// dst's storage. Only a's lower triangle is read; dst must be n×n and must
// not alias a. The strict upper triangle of dst is zeroed.
//
// Row i is filled four columns at a time: the k < j partial sums of columns
// j..j+3 run as four independent chains through one pass over the row, so the
// loop is not bound by the latency of a single subtraction, and the 4×4
// triangular tail that couples them is finished in column order. Every chain
// still subtracts in ascending k and divides once, so each entry is the value
// the one-column-at-a-time loop produces, and row i still depends on rows < i
// only (what CholUpdateAppend relies on).
func CholeskyInto(dst, a *Matrix) error {
	n := a.Rows
	if a.Cols != n || dst.Rows != n || dst.Cols != n {
		panic("numeric: CholeskyInto shape mismatch")
	}
	for i := 0; i < n; i++ {
		li := dst.Row(i)
		ai := a.Row(i)
		j := 0
		for ; j+3 < i; j += 4 {
			l0, l1, l2, l3 := dst.Row(j)[:j+1], dst.Row(j + 1)[:j+2], dst.Row(j + 2)[:j+3], dst.Row(j + 3)[:j+4]
			s0, s1, s2, s3 := ai[j], ai[j+1], ai[j+2], ai[j+3]
			for k, v := range li[:j] {
				s0 -= v * l0[k]
				s1 -= v * l1[k]
				s2 -= v * l2[k]
				s3 -= v * l3[k]
			}
			v0 := s0 / l0[j]
			s1 -= v0 * l1[j]
			v1 := s1 / l1[j+1]
			s2 -= v0 * l2[j]
			s2 -= v1 * l2[j+1]
			v2 := s2 / l2[j+2]
			s3 -= v0 * l3[j]
			s3 -= v1 * l3[j+1]
			s3 -= v2 * l3[j+2]
			li[j], li[j+1], li[j+2], li[j+3] = v0, v1, v2, s3/l3[j+3]
		}
		for ; j <= i; j++ {
			sum := ai[j]
			lj := dst.Row(j)
			for k, v := range li[:j] {
				sum -= v * lj[k]
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

// CholInverseLowerInto fills the lower triangle of inv (row i, columns ≤ i)
// with that of (L·Lᵀ)⁻¹; the strict upper triangle of inv is left undefined.
// Column j of the inverse solves L·Lᵀ·x = e_j, and the triangle needs a
// third of that solve's arithmetic: the forward solve starts at row j (above
// it e_j is zero, and every skipped step is a subtraction of l·0), the
// back-substitution stops at row j (rows above are the upper triangle). Each
// retained entry therefore sees the same subtractions in the same ascending-k
// order and the same division as CholSolveInto on e_j, which the tests keep
// as the oracle, bit for bit.
//
// Columns are solved ShardSpan at a time, in place in their strip of inv, in
// the i-k-j order of solveLowerBlock (stack accumulator, paired k-steps with
// the two subtractions kept sequential). Strips are independent, so they are
// sharded across workers with the same bits for every worker count.
func CholInverseLowerInto(l *Matrix, inv *Matrix, workers int) {
	n := l.Rows
	if l.Cols != n || inv.Rows != n || inv.Cols != n {
		panic("numeric: CholInverseLowerInto shape mismatch")
	}
	ParallelFor(workers, NumShards(n), func(s int) {
		lo, hi := ShardBounds(n, s)
		cholInverseLowerStrip(l, inv, lo, hi)
	})
}

// cholInverseLowerStrip solves columns lo..hi-1 of the inverse in place in
// rows lo.. of inv.
func cholInverseLowerStrip(l, inv *Matrix, lo, hi int) {
	n := l.Rows
	var accBuf [ShardSpan]float64
	acc := accBuf[:hi-lo]

	// Forward: rows lo.. of L·Y = [e_lo … e_hi-1].
	for i := lo; i < n; i++ {
		li := l.Row(i)
		for c := range acc {
			acc[c] = 0
		}
		if i < hi {
			acc[i-lo] = 1
		}
		k := lo
		for ; k+1 < i; k += 2 {
			subRowPair(acc, li[k], li[k+1], inv.Data[k*n+lo:], inv.Data[(k+1)*n+lo:])
		}
		if k < i {
			subRow(acc, li[k], inv.Data[k*n+lo:])
		}
		divRowInto(inv.Data[i*n+lo:], acc, li[i])
	}

	// Backward: Lᵀ·X = Y from the last row up to row lo; inside the diagonal
	// block row i keeps columns lo..i only.
	for i := n - 1; i >= lo; i-- {
		if i < hi {
			acc = acc[:i-lo+1]
		}
		xi := inv.Data[i*n+lo:]
		copy(acc, xi)
		k := i + 1
		for ; k+1 < n; k += 2 {
			subRowPair(acc, l.Data[k*n+i], l.Data[(k+1)*n+i], inv.Data[k*n+lo:], inv.Data[(k+1)*n+lo:])
		}
		if k < n {
			subRow(acc, l.Data[k*n+i], inv.Data[k*n+lo:])
		}
		divRowInto(xi, acc, l.Data[i*n+i])
	}
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
