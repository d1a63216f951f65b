package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	tests := []struct {
		name       string
		rows, cols int
	}{
		{"empty", 0, 0},
		{"row vector", 1, 5},
		{"col vector", 5, 1},
		{"square", 3, 3},
		{"rect", 2, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := New(tt.rows, tt.cols)
			if m.Rows() != tt.rows || m.Cols() != tt.cols {
				t.Fatalf("got %dx%d, want %dx%d", m.Rows(), m.Cols(), tt.rows, tt.cols)
			}
			if m.Size() != tt.rows*tt.cols {
				t.Fatalf("Size() = %d, want %d", m.Size(), tt.rows*tt.cols)
			}
			for _, v := range m.Data() {
				if v != 0 {
					t.Fatal("New must zero-fill")
				}
			}
		})
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestNewFromRowsRagged(t *testing.T) {
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestNewFromRowsEmpty(t *testing.T) {
	m, err := NewFromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("shape %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestIdentityMatVec(t *testing.T) {
	id := Identity(4)
	x := []float64{1, -2, 3, -4}
	got := id.MatVec(x)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("identity MatVec changed element %d: %v", i, got)
		}
	}
}

func TestAtSetAdd(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
}

func TestRowIsView(t *testing.T) {
	m := New(2, 2)
	r := m.Row(0)
	r[1] = 9
	if m.At(0, 1) != 9 {
		t.Fatal("Row must return a view")
	}
}

func TestColIsCopy(t *testing.T) {
	m := New(2, 2)
	c := m.Col(0)
	c[0] = 9
	if m.At(0, 0) != 0 {
		t.Fatal("Col must return a copy")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("shape %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got := a.MatMul(b)
	want, _ := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 0) {
		t.Fatalf("MatMul = %+v", got.Data())
	}
}

func TestMatVecVecMatConsistency(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, -2, 3}, {0, 4, -1}})
	x := []float64{2, 1}
	// xᵀM must equal (Mᵀx)ᵀ.
	a := m.VecMat(x)
	b := m.T().MatVec(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("VecMat disagrees with Tᵀ MatVec: %v vs %v", a, b)
		}
	}
}

func TestColAbsSums(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, -2}, {-3, 4}})
	got := m.ColAbsSums()
	if got[0] != 4 || got[1] != 6 {
		t.Fatalf("ColAbsSums = %v, want [4 6]", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{4, 3}, {2, 1}})
	a.AddMatrix(b)
	want, _ := NewFromRows([][]float64{{5, 5}, {5, 5}})
	if !a.Equal(want, 0) {
		t.Fatalf("AddMatrix = %v", a.Data())
	}
	a.SubMatrix(b)
	a.Scale(2)
	want2, _ := NewFromRows([][]float64{{2, 4}, {6, 8}})
	if !a.Equal(want2, 0) {
		t.Fatalf("chained ops = %v", a.Data())
	}
}

func TestAddScaled(t *testing.T) {
	a := New(1, 3)
	b, _ := NewFromRows([][]float64{{1, 2, 3}})
	a.AddScaled(-2, b)
	want, _ := NewFromRows([][]float64{{-2, -4, -6}})
	if !a.Equal(want, 0) {
		t.Fatalf("AddScaled = %v", a.Data())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	c := a.Clone()
	c.Set(0, 0, 9)
	if a.At(0, 0) != 0 {
		t.Fatal("Clone shares backing store")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(1, 2).Equal(New(2, 1), 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestMaxAbsFrobenius(t *testing.T) {
	m, _ := NewFromRows([][]float64{{-3, 4}})
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if math.Abs(m.FrobeniusNorm()-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v", m.FrobeniusNorm())
	}
}

// Property: (AB)x == A(Bx) for random small matrices.
func TestMatMulMatVecAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n, k, p := 2+r.intn(4), 2+r.intn(4), 2+r.intn(4)
		a := randomMatrix(r, n, k)
		b := randomMatrix(r, k, p)
		x := randomVec(r, p)
		left := a.MatMul(b).MatVec(x)
		right := a.MatVec(b.MatVec(x))
		for i := range left {
			if math.Abs(left[i]-right[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m := randomMatrix(r, 1+r.intn(6), 1+r.intn(6))
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ColAbsSums is invariant under sign flips of any row.
func TestColAbsSumsSignInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m := randomMatrix(r, 2+r.intn(4), 2+r.intn(4))
		before := m.ColAbsSums()
		flip := m.Clone()
		row := flip.Row(r.intn(flip.Rows()))
		for i := range row {
			row[i] = -row[i]
		}
		after := flip.ColAbsSums()
		for j := range before {
			if math.Abs(before[j]-after[j]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
