package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randMatrix fills a matrix with a mix of signed values and exact zeros so
// the kernels' zero-skip paths are exercised.
func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		if r.Intn(4) == 0 {
			continue // leave an exact zero
		}
		m.data[i] = r.NormFloat64()
	}
	return m
}

// bitsEqual reports bit-level equality, the standard this package's
// determinism contract promises.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestGemmMatchesMatMulBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Sizes straddling the cache block so the blocked path runs.
	for _, sz := range [][3]int{{3, 5, 4}, {10, 784, 6}, {2, gemmBlock + 33, 9}, {1, 1, 1}} {
		m, k, n := sz[0], sz[1], sz[2]
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		want := a.MatMul(b)
		dst := New(m, n)
		dst.Fill(math.NaN()) // prove dst is fully overwritten
		Gemm(dst, a, b)
		if !bitsEqual(dst.Data(), want.Data()) {
			t.Fatalf("Gemm %dx%dx%d differs from MatMul", m, k, n)
		}
	}
}

func TestGemmTAMatchesPerSampleOuterSum(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, sz := range [][3]int{{5, 3, 4}, {37, 10, 784}, {gemmBlock + 5, 4, 9}} {
		k, m, n := sz[0], sz[1], sz[2]
		a := randMatrix(r, k, m) // e.g. batch of deltas
		b := randMatrix(r, k, n) // e.g. batch of inputs
		// Reference: the per-sample accumulation order of the old training
		// loops — samples outer, in increasing order, each adding the
		// outer product a_s·b_sᵀ.
		want := New(m, n)
		for s := 0; s < k; s++ {
			for i, ai := range a.Row(s) {
				if ai == 0 {
					continue
				}
				row := want.Row(i)
				for j, bj := range b.Row(s) {
					row[j] += ai * bj
				}
			}
		}
		dst := New(m, n)
		dst.Fill(math.NaN())
		GemmTA(dst, a, b)
		if !bitsEqual(dst.Data(), want.Data()) {
			t.Fatalf("GemmTA %dx%dx%d differs from per-sample outer sum", k, m, n)
		}
	}
}

func TestGemmTBMatchesPerSampleMatVec(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, sz := range [][3]int{{4, 6, 3}, {33, 784, 10}, {2, gemmBlock + 17, 5}} {
		m, k, n := sz[0], sz[1], sz[2]
		a := randMatrix(r, m, k) // e.g. batch of inputs
		b := randMatrix(r, n, k) // e.g. weights
		dst := New(m, n)
		dst.Fill(math.NaN())
		GemmTB(dst, a, b)
		for i := 0; i < m; i++ {
			if want := b.MatVec(a.Row(i)); !bitsEqual(dst.Row(i), want) {
				t.Fatalf("GemmTB row %d differs from MatVec", i)
			}
		}
	}
}

func TestMatVecIntoMatchesMatVec(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	m := randMatrix(r, 13, 57)
	x := make([]float64, 57)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	dst := make([]float64, 13)
	MatVecInto(dst, m, x)
	if !bitsEqual(dst, m.MatVec(x)) {
		t.Fatal("MatVecInto differs from MatVec")
	}
}

func TestVecMatIntoMatchesVecMat(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := randMatrix(r, 13, 57)
	x := make([]float64, 13)
	for i := range x {
		if r.Intn(3) != 0 {
			x[i] = r.NormFloat64()
		}
	}
	dst := make([]float64, 57)
	for i := range dst {
		dst[i] = math.NaN()
	}
	VecMatInto(dst, x, m)
	if !bitsEqual(dst, m.VecMat(x)) {
		t.Fatal("VecMatInto differs from VecMat")
	}
}

func TestRowSpanSharesBacking(t *testing.T) {
	m := New(4, 3)
	v := m.RowSpan(1, 3)
	if v.Rows() != 2 || v.Cols() != 3 {
		t.Fatalf("RowSpan shape %dx%d", v.Rows(), v.Cols())
	}
	v.Set(0, 2, 42)
	if m.At(1, 2) != 42 {
		t.Fatal("RowSpan is not a view")
	}
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RowSpan(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			m.RowSpan(bad[0], bad[1])
		}()
	}
}

func TestCopyRow(t *testing.T) {
	src := New(2, 3)
	src.SetRow(1, []float64{4, 5, 6})
	dst := New(3, 3)
	dst.CopyRow(2, src, 1)
	if !bitsEqual(dst.Row(2), src.Row(1)) {
		t.Fatal("CopyRow mismatch")
	}
}

func TestGemmShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	for name, f := range map[string]func(){
		"Gemm":       func() { Gemm(New(2, 5), a, b) },
		"GemmTA":     func() { GemmTA(New(3, 5), a, b) },
		"GemmTB":     func() { GemmTB(New(2, 4), a, b) },
		"MatVecInto": func() { MatVecInto(make([]float64, 2), a, make([]float64, 4)) },
		"VecMatInto": func() { VecMatInto(make([]float64, 3), make([]float64, 4), a) },
		"GemmNarrow": func() { GemmNarrow(New(2, 5), a, b) },
		"PowerGrad":  func() { PowerGrad(New(3, 5), a, b, New(3, 5), make([]float64, 2)) },
		"FusedSweep": func() {
			FusedSweep([][]float64{make([]float64, 2)}, make([]float64, 1), [][]float64{make([]float64, 3)}, a, b, nil, 1)
		},
		"FusedSweep/input": func() {
			FusedSweep([][]float64{make([]float64, 2)}, make([]float64, 1), [][]float64{make([]float64, 4)}, a, a, nil, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestKernelsAllocationFree(t *testing.T) {
	a := randMatrix(rand.New(rand.NewSource(12)), 16, 300)
	b := randMatrix(rand.New(rand.NewSource(13)), 10, 300)
	bt := b.T()
	dst := New(16, 10)
	dstTA := New(300, 300)
	x := make([]float64, 300)
	mv := make([]float64, 16)
	vm := make([]float64, 300)
	vel := New(16, 10)
	gsg := New(16, 10)
	grad := New(10, 300)
	coeffs := make([]float64, 16)
	us, outs, totals := make([][]float64, FusedSweepLanes), make([][]float64, FusedSweepLanes), make([]float64, FusedSweepLanes)
	for k := range us {
		us[k], outs[k] = a.Row(k), make([]float64, a.Rows())
	}
	for name, f := range map[string]func(){
		"Gemm":       func() { Gemm(dst, a, bt) },
		"GemmNarrow": func() { GemmNarrow(dst, a, bt) },
		"PowerGrad":  func() { PowerGrad(grad, dst, a, b, coeffs) },
		"FusedSweep": func() { FusedSweep(outs, totals, us, a, a, x, 0.2) },
		"GemmTA":     func() { GemmTA(dstTA, a, a) },
		"GemmTB":     func() { GemmTB(dst, a, b) },
		"MatVecInto": func() { MatVecInto(vm, dstTA, x) },
		"VecMatInto": func() { VecMatInto(vm, mv, a) },
		"SGDMomentumStep": func() {
			SGDMomentumStep(dst, vel, gsg, 0.9, -0.01, true, -0.001)
		},
	} {
		f() // warm up
		if n := testing.AllocsPerRun(10, f); n != 0 {
			t.Errorf("%s allocates %v per run, want 0", name, n)
		}
	}
}
