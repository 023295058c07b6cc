// Package numeric provides the dense linear algebra, random sampling and
// statistical primitives used by the Gaussian process, the heuristic
// optimisers and the experiment harness. Everything is implemented on top of
// the standard library so the module stays dependency-free.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed r-by-c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("numeric: invalid matrix shape %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	out := NewMatrix(m.Rows, b.Cols)
	MulInto(out, m, b)
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("numeric: mulvec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), v)
	}
	return out
}

// AddDiag adds v to every diagonal element in place.
func (m *Matrix) AddDiag(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("numeric: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ.
// A must be symmetric; only its lower triangle is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Rows)
	if err := CholeskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyWithJitter repeatedly adds diagonal jitter (growing ×10 each try)
// until the factorisation succeeds, returning the factor and the jitter used.
func CholeskyWithJitter(a *Matrix, jitter float64, maxTries int) (*Matrix, float64, error) {
	l := NewMatrix(a.Rows, a.Rows)
	added, err := CholeskyWithJitterInto(l, a.Clone(), jitter, maxTries)
	if err != nil {
		return nil, added, err
	}
	return l, added, nil
}

// SolveLower solves L·x = b for lower-triangular L.
func SolveLower(l *Matrix, b []float64) []float64 {
	x := make([]float64, l.Rows)
	SolveLowerInto(l, b, x)
	return x
}

// SolveUpperT solves Lᵀ·x = b given the lower-triangular factor L.
func SolveUpperT(l *Matrix, b []float64) []float64 {
	x := make([]float64, l.Rows)
	SolveUpperTInto(l, b, x)
	return x
}

// LogDetFromChol returns log|A| given the Cholesky factor L of A.
func LogDetFromChol(l *Matrix) float64 {
	sum := 0.0
	for i := 0; i < l.Rows; i++ {
		sum += math.Log(l.At(i, i))
	}
	return 2 * sum
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Scale multiplies every element of v by s in place and returns v.
func Scale(v []float64, s float64) []float64 {
	for i := range v {
		v[i] *= s
	}
	return v
}

// AxPy computes y += a·x in place.
func AxPy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Sub returns a-b as a new slice.
func Sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
