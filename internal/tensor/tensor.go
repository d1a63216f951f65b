// Package tensor provides the dense matrix and vector kernel used by every
// other package in this module. Matrices are row-major float64. Following
// the convention of mainstream Go numeric libraries, shape mismatches are
// treated as programmer errors and panic with a descriptive message; all
// other failure modes return errors.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use New or NewFromRows to
// construct matrices with a shape.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-filled rows x cols matrix.
// It panics if rows or cols is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equal-length rows, copying
// the data. It returns an error if the rows are ragged or empty.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("tensor: ragged row %d: got %d values, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Size returns the total number of elements.
func (m *Matrix) Size() int { return m.rows * m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i as a slice.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("tensor: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i. It panics if len(v) != Cols().
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("tensor: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// Data returns the underlying row-major backing slice (not a copy).
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// MatVec computes m * x and returns the resulting vector of length Rows().
// It panics if len(x) != Cols().
func (m *Matrix) MatVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("tensor: MatVec length %d, want %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// VecMat computes xᵀ * m and returns the resulting vector of length Cols().
// It panics if len(x) != Rows().
func (m *Matrix) VecMat(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("tensor: VecMat length %d, want %d", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// MatMul computes m * other and returns a new Rows() x other.Cols() matrix.
// It panics if m.Cols() != other.Rows().
func (m *Matrix) MatMul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := New(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*other.cols : (i+1)*other.cols]
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			brow := other.data[k*other.cols : (k+1)*other.cols]
			for j, b := range brow {
				orow[j] += a * b
			}
		}
	}
	return out
}

// AddMatrix adds other into m element-wise, in place.
// It panics on shape mismatch.
func (m *Matrix) AddMatrix(other *Matrix) {
	m.sameShape(other, "AddMatrix")
	for i, v := range other.data {
		m.data[i] += v
	}
}

// SubMatrix subtracts other from m element-wise, in place.
// It panics on shape mismatch.
func (m *Matrix) SubMatrix(other *Matrix) {
	m.sameShape(other, "SubMatrix")
	for i, v := range other.data {
		m.data[i] -= v
	}
}

// AddScaled adds alpha*other into m element-wise, in place.
// It panics on shape mismatch.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) {
	m.sameShape(other, "AddScaled")
	for i, v := range other.data {
		m.data[i] += alpha * v
	}
}

// Scale multiplies every element of m by alpha, in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.data {
		m.data[i] *= alpha
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// ColAbsSums returns, for each column j, Σ_i |m_ij| — the 1-norm of
// column j. This is the quantity the crossbar power side channel leaks.
func (m *Matrix) ColAbsSums() []float64 {
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += math.Abs(v)
		}
	}
	return out
}

// MaxAbs returns the largest absolute value in m, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var best float64
	for _, v := range m.data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// FrobeniusNorm returns sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

func (m *Matrix) sameShape(other *Matrix, op string) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, other.rows, other.cols))
	}
}

// Equal reports whether m and other have the same shape and all elements
// within tol of each other.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small human-readable preview of the matrix.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
}
