package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xbarsec/internal/tensor"
)

func randMatrix(r *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = r.NormFloat64()
	}
	return m
}

func TestQRReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := 3 + r.Intn(8)
		n := 1 + r.Intn(m)
		a := randMatrix(r, m, n)
		f, err := NewQR(a)
		if err != nil {
			t.Fatal(err)
		}
		qr := f.Q().MatMul(f.R())
		if !qr.Equal(a, 1e-9) {
			t.Fatalf("trial %d: QR does not reconstruct A", trial)
		}
	}
}

func TestQROrthonormalColumns(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randMatrix(r, 7, 4)
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	q := f.Q()
	qtq := q.T().MatMul(q)
	if !qtq.Equal(tensor.Identity(4), 1e-9) {
		t.Fatal("QᵀQ != I")
	}
}

func TestQRUpperTriangular(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randMatrix(r, 6, 4)
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	rr := f.R()
	for i := 1; i < rr.Rows(); i++ {
		for j := 0; j < i; j++ {
			if math.Abs(rr.At(i, j)) > 1e-12 {
				t.Fatalf("R(%d,%d) = %v, want 0", i, j, rr.At(i, j))
			}
		}
	}
}

func TestQRWideRejected(t *testing.T) {
	if _, err := NewQR(tensor.New(2, 3)); err == nil {
		t.Fatal("wide matrix must be rejected")
	}
}

func TestSolveExactSquareSystem(t *testing.T) {
	a, _ := tensor.NewFromRows([][]float64{{2, 1}, {1, 3}})
	// x = [1, 2] → b = [4, 7]
	x, err := LeastSquares(a, []float64{4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("x = %v, want [1 2]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2t + 1 exactly through noiseless points.
	ts := []float64{0, 1, 2, 3, 4}
	a := tensor.New(len(ts), 2)
	b := make([]float64, len(ts))
	for i, tv := range ts {
		a.Set(i, 0, tv)
		a.Set(i, 1, 1)
		b[i] = 2*tv + 1
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-1) > 1e-10 {
		t.Fatalf("fit = %v, want [2 1]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := tensor.NewFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	_, err := LeastSquares(a, []float64{1, 2, 3})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSolveRHSLengthMismatch(t *testing.T) {
	f, err := NewQR(tensor.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestPseudoInverseTall(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := randMatrix(r, 8, 3)
	ainv, err := PseudoInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	// A† A = I for full column rank.
	if !ainv.MatMul(a).Equal(tensor.Identity(3), 1e-8) {
		t.Fatal("A†A != I")
	}
}

func TestPseudoInverseWide(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randMatrix(r, 3, 8)
	ainv, err := PseudoInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	// A A† = I for full row rank.
	if !a.MatMul(ainv).Equal(tensor.Identity(3), 1e-8) {
		t.Fatal("AA† != I")
	}
}

// The paper's §IV observation: with Q >= N independent queries and raw
// outputs, the weight matrix is exactly recoverable as W = (U† Ŷ)ᵀ where
// rows of U are queries and rows of Ŷ the corresponding outputs.
func TestWeightRecoveryFromQueries(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const (
		nInputs  = 12
		nOutputs = 4
		nQueries = 20
	)
	w := randMatrix(r, nOutputs, nInputs)
	u := randMatrix(r, nQueries, nInputs)
	y := u.MatMul(w.T()) // each row: W u

	uinv, err := PseudoInverse(u)
	if err != nil {
		t.Fatal(err)
	}
	west := uinv.MatMul(y).T()
	if !west.Equal(w, 1e-8) {
		t.Fatal("W = U†Ŷ recovery failed")
	}
}

// Property: least-squares residual is orthogonal to the column space.
func TestResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(6)
		n := 1 + r.Intn(3)
		a := randMatrix(r, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient draw; skip
		}
		res := tensor.SubVec(b, a.MatVec(x))
		// Aᵀ r should be ~0.
		atr := a.VecMat(res)
		return tensor.NormInf(atr) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
