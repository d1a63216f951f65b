// Package linalg supplies the dense numerical linear algebra the paper's
// Case-2 analysis needs: Householder QR, least-squares solves and the
// Moore-Penrose pseudoinverse. Section IV of the paper observes that with
// Q >= N independent queries and access to raw linear outputs the weight
// matrix is exactly recoverable as W = U† Ŷ; the algebraic extraction
// baseline in internal/surrogate is built on these routines.
//
// The factorization kernels sweep matrices row-major through raw row
// slices with a single column-sized workspace — no element-wise At/Set
// bounds checks in inner loops — while keeping the floating-point
// accumulation order of the straightforward column-at-a-time formulation
// (reflections contract over the row index in increasing order for every
// column simultaneously), so Q, R and every downstream solve are
// bit-identical to it.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"xbarsec/internal/tensor"
)

// ErrSingular indicates the system is (numerically) rank deficient where a
// full-rank factorization was required.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// QR holds a Householder QR factorization A = Q·R with A m x n, m >= n,
// Q m x n with orthonormal columns (thin form) and R n x n upper
// triangular.
type QR struct {
	q *tensor.Matrix
	r *tensor.Matrix
}

// NewQR computes the thin QR factorization of a. It returns an error if a
// has more columns than rows.
func NewQR(a *tensor.Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	// Work on a copy; accumulate Householder vectors in-place.
	r := a.Clone()
	vs := make([][]float64, 0, n)
	w := make([]float64, n) // per-reflection column workspace
	for k := 0; k < n; k++ {
		// Build the Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			v := r.Row(i)[k]
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			vs = append(vs, nil)
			continue
		}
		alpha := -norm
		if r.Row(k)[k] < 0 {
			alpha = norm
		}
		v := make([]float64, m-k)
		v[0] = r.Row(k)[k] - alpha
		for i := k + 1; i < m; i++ {
			v[i-k] = r.Row(i)[k]
		}
		vnorm := tensor.Norm2(v)
		if vnorm == 0 {
			vs = append(vs, nil)
			continue
		}
		for i := range v {
			v[i] /= vnorm
		}
		vs = append(vs, v)
		// Apply H = I - 2vvᵀ to the trailing submatrix of R: first
		// w = 2·vᵀR (all trailing columns in one row-major sweep,
		// contracting over rows in increasing order), then R -= v·wᵀ.
		wk := w[k:]
		for j := range wk {
			wk[j] = 0
		}
		for i := k; i < m; i++ {
			vi := v[i-k]
			row := r.Row(i)[k:]
			for j, rv := range row {
				wk[j] += vi * rv
			}
		}
		for j := range wk {
			wk[j] *= 2
		}
		for i := k; i < m; i++ {
			vi := v[i-k]
			row := r.Row(i)[k:]
			for j := range row {
				row[j] -= vi * wk[j]
			}
		}
	}
	// Form thin Q by applying the Householder reflections to the first n
	// columns of the identity, in reverse order — all columns advance
	// together through row-major sweeps.
	q := tensor.New(m, n)
	for j := 0; j < n; j++ {
		q.Row(j)[j] = 1
	}
	for k := len(vs) - 1; k >= 0; k-- {
		v := vs[k]
		if v == nil {
			continue
		}
		for j := range w {
			w[j] = 0
		}
		for i := k; i < m; i++ {
			vi := v[i-k]
			row := q.Row(i)
			for j, qv := range row {
				w[j] += vi * qv
			}
		}
		for j := range w {
			w[j] *= 2
		}
		for i := k; i < m; i++ {
			vi := v[i-k]
			row := q.Row(i)
			for j := range row {
				row[j] -= vi * w[j]
			}
		}
	}
	rr := tensor.New(n, n)
	for i := 0; i < n; i++ {
		copy(rr.Row(i)[i:], r.Row(i)[i:n])
	}
	return &QR{q: q, r: rr}, nil
}

// Q returns the thin orthonormal factor (a copy).
func (f *QR) Q() *tensor.Matrix { return f.q.Clone() }

// R returns the upper-triangular factor (a copy).
func (f *QR) R() *tensor.Matrix { return f.r.Clone() }

// Solve returns x minimizing ||Ax - b||₂ using the factorization.
// It returns ErrSingular if R has a (numerically) zero diagonal entry.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.q.Rows(), f.q.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("linalg: Solve rhs length %d, want %d", len(b), m)
	}
	// x = R⁻¹ Qᵀ b.
	qtb := make([]float64, n)
	tensor.VecMatInto(qtb, b, f.q)
	x := make([]float64, n)
	if err := backSubstituteInto(x, f.r, qtb); err != nil {
		return nil, err
	}
	return x, nil
}

// backSubstituteInto solves the upper-triangular system R·x = y into the
// caller-provided dst (len n); y is read up to n and not modified. dst
// and y may not alias.
func backSubstituteInto(dst []float64, r *tensor.Matrix, y []float64) error {
	n := len(dst)
	scale := r.MaxAbs()
	tol := 1e-12 * math.Max(scale, 1)
	for i := n - 1; i >= 0; i-- {
		row := r.Row(i)
		d := row[i]
		if math.Abs(d) <= tol {
			return fmt.Errorf("linalg: zero pivot at %d: %w", i, ErrSingular)
		}
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s / d
	}
	return nil
}

// LeastSquares returns x minimizing ||Ax - b||₂ for a with full column
// rank.
func LeastSquares(a *tensor.Matrix, b []float64) ([]float64, error) {
	f, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// PseudoInverse returns the Moore-Penrose pseudoinverse of a full-column-
// rank matrix a (m x n, m >= n): A† = (AᵀA)⁻¹Aᵀ computed stably through
// QR as R⁻¹Qᵀ. For m < n the pseudoinverse of the transpose is used,
// (A†)ᵀ = (Aᵀ)†. Column j of A† is R⁻¹·(row j of Q) — the rows of Q are
// read directly, with one reused solve buffer, instead of materializing
// Qᵀ and copying each of its columns.
func PseudoInverse(a *tensor.Matrix) (*tensor.Matrix, error) {
	if a.Rows() < a.Cols() {
		pt, err := PseudoInverse(a.T())
		if err != nil {
			return nil, err
		}
		return pt.T(), nil
	}
	f, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	n := a.Cols()
	inv := tensor.New(n, a.Rows())
	x := make([]float64, n)
	for j := 0; j < a.Rows(); j++ {
		if err := backSubstituteInto(x, f.r, f.q.Row(j)); err != nil {
			return nil, err
		}
		for i, v := range x {
			inv.Row(i)[j] = v
		}
	}
	return inv, nil
}
