package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0},
		{"parallel", []float64{1, 2, 3}, []float64{2, 4, 6}, 28},
		{"signed", []float64{1, -1}, []float64{1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); got != tt.want {
				t.Fatalf("Dot = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestVectorArithmetic(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{3, 2, 1}
	if got := AddVec(a, b); got[0] != 4 || got[1] != 4 || got[2] != 4 {
		t.Fatalf("AddVec = %v", got)
	}
	if got := SubVec(a, b); got[0] != -2 || got[2] != 2 {
		t.Fatalf("SubVec = %v", got)
	}
	if got := ScaleVec(-1, a); got[0] != -1 || got[2] != -3 {
		t.Fatalf("ScaleVec = %v", got)
	}
	y := CloneVec(a)
	AxpyInPlace(2, b, y)
	if y[0] != 7 || y[2] != 5 {
		t.Fatalf("Axpy = %v", y)
	}
	// Original untouched by clone mutation.
	if a[0] != 1 {
		t.Fatal("CloneVec aliased input")
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if Norm2(v) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(v))
	}
	if NormInf(v) != 4 {
		t.Fatalf("NormInf = %v", NormInf(v))
	}
	if NormInf(nil) != 0 {
		t.Fatal("NormInf(nil) must be 0")
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		name    string
		v       []float64
		wantMax int
	}{
		{"empty", nil, -1},
		{"single", []float64{5}, 0},
		{"ties pick first", []float64{2, 2, 1, 1}, 0},
		{"signed", []float64{-5, 0, 5}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ArgMax(tt.v); got != tt.wantMax {
				t.Fatalf("ArgMax = %d, want %d", got, tt.wantMax)
			}
		})
	}
}

func TestTopK(t *testing.T) {
	v := []float64{1, 9, 3, 9, 5}
	got := TopK(v, 3)
	want := []int{1, 3, 4} // stable: first 9, second 9, then 5
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
	if got := TopK(v, 99); len(got) != len(v) {
		t.Fatalf("TopK over-length = %v", got)
	}
	if got := TopK(v, 0); got != nil {
		t.Fatalf("TopK(0) = %v, want nil", got)
	}
}

func TestBasis(t *testing.T) {
	b := Basis(4, 2, 3.5)
	for i, v := range b {
		want := 0.0
		if i == 2 {
			want = 3.5
		}
		if v != want {
			t.Fatalf("Basis = %v", b)
		}
	}
}

func TestBasisOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Basis(3, 3, 1)
}

func TestAbsVec(t *testing.T) {
	if got := AbsVec([]float64{-1, 2, -3}); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AbsVec = %v", got)
	}
}

// Property: triangle inequality for Norm2.
func TestNorm2Triangle(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 1 + r.intn(10)
		a, b := randomVec(r, n), randomVec(r, n)
		return Norm2(AddVec(a, b)) <= Norm2(a)+Norm2(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy-Schwarz |a·b| <= |a||b|.
func TestCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 1 + r.intn(10)
		a, b := randomVec(r, n), randomVec(r, n)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatVec with a basis vector extracts a column.
func TestMatVecBasisExtractsColumn(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m := randomMatrix(r, 2+r.intn(5), 2+r.intn(5))
		j := r.intn(m.Cols())
		got := m.MatVec(Basis(m.Cols(), j, 1))
		col := m.Col(j)
		for i := range got {
			if math.Abs(got[i]-col[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
