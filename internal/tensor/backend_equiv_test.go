package tensor

import (
	"math"
	"testing"
)

// Equivalence harness for the fast backend (ISSUE 9; Gemm joined the
// unrolled group in ISSUE 10). Two contracts are pinned here:
//
//   - VecMatInto and SGDMomentumStep must be byte-for-byte
//     identical to the reference at every worker count (partition-only
//     kernels).
//   - Gemm, GemmTB, MatVecInto, GemmTA run unrolled/fused accumulations
//     (chain splits, FMA) and are held to the standard
//     reordered-summation bound |fast−ref| ≤ c·k·eps·Σ|aᵢ·bᵢ| + floor
//     per destination element.
//
// Plus a cross-cutting determinism property: for a fixed input the fast
// backend's bits must not depend on the worker count.

// equivShapes covers serial paths, pool paths (crossing fastMinFlop),
// unroll tails (k ≢ 0 mod 4 and mod 16), degenerate dims, and both
// GemmTB loop orders (m<n, m>n, m=n).
var equivShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{2, 3, 5},
	{4, 16, 4},
	{3, 17, 9},   // k tail of 1 past 16-lane, 1 past 4-chain
	{7, 31, 2},   // narrow dst: exercises asm scalar column tail
	{5, 130, 33}, // k ≡ 2 mod 4
	{32, 300, 10},
	{10, 300, 32}, // GemmTB m<n vs m>n mirror of the line above
	{64, 257, 64}, // square-ish, k ≡ 1 mod 4, > fastMinFlop
	{128, 96, 70}, // > fastMinFlop: pool path under workers>1
	{1, 3072, 10}, // training shapes from the surrogate hot loop
	{33, 128, 128},
}

// dotBound returns the tolerance for one destination element whose exact
// value accumulates k products with total magnitude mag = Σ|aᵢ·bᵢ|:
// c·k·eps·mag covers any reordering of the sum (and FMA's fused
// rounding, which is strictly closer to exact than the separate ops),
// with a tiny absolute floor for all-zero rows.
func dotBound(k int, mag float64) float64 {
	const c = 8
	return c*float64(k)*2.220446049250313e-16*mag + 1e-300
}

func checkBitEqual(t *testing.T, kernel string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs bitwise: got %x want %x",
				kernel, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func checkWithin(t *testing.T, kernel string, got, want, mag []float64, k int) {
	t.Helper()
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > dotBound(k, mag[i]) {
			t.Fatalf("%s: element %d off by %g (bound %g, ref %g)",
				kernel, i, d, dotBound(k, mag[i]), want[i])
		}
	}
}

// absDotsMM returns Σ_k |a[i,k]·b[k,j]| per destination element of a·b.
func absDotsMM(a, b *Matrix) []float64 {
	mag := make([]float64, a.rows*b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += math.Abs(a.data[i*a.cols+k] * b.data[k*b.cols+j])
			}
			mag[i*b.cols+j] = s
		}
	}
	return mag
}

// absDotsTB returns Σ_k |a[i,k]·b[j,k]| per destination element of a·bᵀ.
func absDotsTB(a, b *Matrix) []float64 {
	mag := make([]float64, a.rows*b.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.rows; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += math.Abs(a.data[i*a.cols+k] * b.data[j*b.cols+k])
			}
			mag[i*b.rows+j] = s
		}
	}
	return mag
}

// absDotsTA returns Σ_s |a[s,f]·b[s,j]| per destination element of aᵀ·b.
func absDotsTA(a, b *Matrix) []float64 {
	mag := make([]float64, a.cols*b.cols)
	for f := 0; f < a.cols; f++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.rows; k++ {
				s += math.Abs(a.data[k*a.cols+f] * b.data[k*b.cols+j])
			}
			mag[f*b.cols+j] = s
		}
	}
	return mag
}

// absDotsMV returns Σ_j |m[i,j]·x[j]| per destination element of m·x.
func absDotsMV(m *Matrix, x []float64) []float64 {
	mag := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for j := 0; j < m.cols; j++ {
			s += math.Abs(m.data[i*m.cols+j] * x[j])
		}
		mag[i] = s
	}
	return mag
}

func TestFastBitExactKernels(t *testing.T) {
	ref := Reference()
	for _, workers := range []int{1, 2, 5} {
		fast := NewFast(workers)
		r := newTestRand(101)
		for _, sh := range equivShapes {
			x := randomVec(r, sh.m)

			wantV := make([]float64, sh.k)
			gotV := make([]float64, sh.k)
			m2 := randomMatrix(r, sh.m, sh.k)
			ref.VecMatInto(wantV, x, m2)
			fast.VecMatInto(gotV, x, m2)
			checkBitEqual(t, "VecMatInto", gotV, wantV)

			for _, decay := range []bool{false, true} {
				wRef := randomMatrix(r, sh.m, sh.k)
				vRef := randomMatrix(r, sh.m, sh.k)
				g := randomMatrix(r, sh.m, sh.k)
				wFast := wRef.Clone()
				vFast := vRef.Clone()
				ref.SGDMomentumStep(wRef, vRef, g, 0.9, -0.05, decay, -0.001)
				fast.SGDMomentumStep(wFast, vFast, g, 0.9, -0.05, decay, -0.001)
				checkBitEqual(t, "SGDMomentumStep/w", wFast.data, wRef.data)
				checkBitEqual(t, "SGDMomentumStep/v", vFast.data, vRef.data)
			}
		}
	}
}

func TestFastToleranceKernels(t *testing.T) {
	ref := Reference()
	for _, workers := range []int{1, 2, 5} {
		fast := NewFast(workers)
		r := newTestRand(202)
		for _, sh := range equivShapes {
			a := randomMatrix(r, sh.m, sh.k)
			bMM := randomMatrix(r, sh.k, sh.n)
			wantMM := New(sh.m, sh.n)
			gotMM := New(sh.m, sh.n)
			ref.Gemm(wantMM, a, bMM)
			fast.Gemm(gotMM, a, bMM)
			checkWithin(t, "Gemm", gotMM.data, wantMM.data, absDotsMM(a, bMM), sh.k)

			bT := randomMatrix(r, sh.n, sh.k) // b for GemmTB: n rows of length k
			want := New(sh.m, sh.n)
			got := New(sh.m, sh.n)
			ref.GemmTB(want, a, bT)
			fast.GemmTB(got, a, bT)
			checkWithin(t, "GemmTB", got.data, want.data, absDotsTB(a, bT), sh.k)

			aTA := randomMatrix(r, sh.k, sh.m) // k samples, m features
			bTA := randomMatrix(r, sh.k, sh.n)
			wantTA := New(sh.m, sh.n)
			gotTA := New(sh.m, sh.n)
			ref.GemmTA(wantTA, aTA, bTA)
			fast.GemmTA(gotTA, aTA, bTA)
			checkWithin(t, "GemmTA", gotTA.data, wantTA.data, absDotsTA(aTA, bTA), sh.k)

			x := randomVec(r, sh.k)
			m := randomMatrix(r, sh.m, sh.k)
			wantMV := make([]float64, sh.m)
			gotMV := make([]float64, sh.m)
			ref.MatVecInto(wantMV, m, x)
			fast.MatVecInto(gotMV, m, x)
			checkWithin(t, "MatVecInto", gotMV, wantMV, absDotsMV(m, x), sh.k)
		}
	}
}

// TestGemmRowsQuadBitExact pins the pure-Go unrolled Gemm row kernel's
// documented claim directly (it is the fallback on machines without
// AVX2+FMA, so the backend-level sweeps may never reach it here): the
// four-wide pairing keeps each element's chain in increasing k and Go
// does not fuse, so the kernel is bitwise identical to the reference.
func TestGemmRowsQuadBitExact(t *testing.T) {
	r := newTestRand(606)
	for _, sh := range equivShapes {
		a := randomMatrix(r, sh.m, sh.k)
		b := randomMatrix(r, sh.k, sh.n)
		// Sparsify a so the group-level zero skip fires.
		for i := range a.data {
			if i%3 == 0 {
				a.data[i] = 0
			}
		}
		want := New(sh.m, sh.n)
		got := New(sh.m, sh.n)
		gemmRows(want, a, b, 0, sh.m)
		gemmRowsQuad(got, a, b, 0, sh.m)
		checkBitEqual(t, "gemmRowsQuad", got.data, want.data)
	}
}

// TestFastWorkerCountBitStable pins the cross-cutting determinism
// property: the partition scheme assigns every destination element to
// exactly one range, so changing the worker count must not change a
// single bit of any fast kernel's output.
func TestFastWorkerCountBitStable(t *testing.T) {
	base := NewFast(1)
	r := newTestRand(303)
	for _, workers := range []int{2, 3, 7} {
		fast := NewFast(workers)
		for _, sh := range equivShapes {
			a := randomMatrix(r, sh.m, sh.k)
			bMM := randomMatrix(r, sh.k, sh.n)
			bT := randomMatrix(r, sh.n, sh.k)
			aTA := randomMatrix(r, sh.k, sh.m)
			bTA := randomMatrix(r, sh.k, sh.n)
			x := randomVec(r, sh.k)

			one := New(sh.m, sh.n)
			many := New(sh.m, sh.n)
			base.Gemm(one, a, bMM)
			fast.Gemm(many, a, bMM)
			checkBitEqual(t, "Gemm workers", many.data, one.data)

			base.GemmTB(one, a, bT)
			fast.GemmTB(many, a, bT)
			checkBitEqual(t, "GemmTB workers", many.data, one.data)

			base.GemmTA(one, aTA, bTA)
			fast.GemmTA(many, aTA, bTA)
			checkBitEqual(t, "GemmTA workers", many.data, one.data)

			oneMV := make([]float64, sh.m)
			manyMV := make([]float64, sh.m)
			m := randomMatrix(r, sh.m, sh.k)
			base.MatVecInto(oneMV, m, x)
			fast.MatVecInto(manyMV, m, x)
			checkBitEqual(t, "MatVecInto workers", manyMV, oneMV)
		}
	}
}

// TestFastSerialAllocationFree mirrors TestKernelsAllocationFree for the
// fast backend: with one worker every kernel takes the serial early
// return ahead of any closure creation, so training- and serving-path
// calls must not allocate.
func TestFastSerialAllocationFree(t *testing.T) {
	fast := NewFast(1)
	r := newTestRand(404)
	a := randomMatrix(r, 16, 48)
	b := randomMatrix(r, 48, 12)
	bT := randomMatrix(r, 12, 48)
	dst := New(16, 12)
	x := randomVec(r, 48)
	mv := make([]float64, 16)
	vm := make([]float64, 48)
	w := randomMatrix(r, 16, 48)
	v := New(16, 48)
	g := randomMatrix(r, 16, 48)
	aTA := randomMatrix(r, 48, 16)

	checks := []struct {
		name string
		fn   func()
	}{
		{"Gemm", func() { fast.Gemm(dst, a, b) }},
		{"GemmTA", func() { fast.GemmTA(dst, aTA, b) }},
		{"GemmTB", func() { fast.GemmTB(dst, a, bT) }},
		{"MatVecInto", func() { fast.MatVecInto(mv, a, x) }},
		{"VecMatInto", func() { fast.VecMatInto(vm, mv, a) }},
		{"SGDMomentumStep", func() { fast.SGDMomentumStep(w, v, g, 0.9, -0.1, true, -0.001) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(20, c.fn); n != 0 {
			t.Errorf("%s allocated %.1f times per call with workers=1", c.name, n)
		}
	}
}

func TestBackendRegistry(t *testing.T) {
	if ActiveName() != RefName {
		t.Fatalf("default backend = %q, want %q", ActiveName(), RefName)
	}
	if !Active().BitExact() {
		t.Fatal("reference backend must report BitExact")
	}
	fast, err := ByName(FastName)
	if err != nil {
		t.Fatal(err)
	}
	if fast.BitExact() {
		t.Fatal("fast backend must not report BitExact")
	}
	for _, name := range []string{"", RefName} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != RefName {
			t.Fatalf("ByName(%q) = %q, want reference", name, b.Name())
		}
	}
	if _, err := ByName("simd9000"); err == nil {
		t.Fatal("ByName with unknown name must error")
	}

	prev := Use(fast)
	defer Use(prev)
	if prev.Name() != RefName {
		t.Fatalf("Use returned %q as previous backend, want %q", prev.Name(), RefName)
	}
	if ActiveName() != FastName {
		t.Fatalf("after Use(fast), ActiveName = %q", ActiveName())
	}
	// Package-level entry points must dispatch through the active backend.
	r := newTestRand(505)
	a := randomMatrix(r, 3, 40)
	bT := randomMatrix(r, 5, 40)
	got := New(3, 5)
	GemmTB(got, a, bT)
	want := New(3, 5)
	fast.GemmTB(want, a, bT)
	checkBitEqual(t, "dispatched GemmTB", got.data, want.data)
}

func TestUseNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Use(nil) must panic")
		}
	}()
	Use(nil)
}

// FuzzFastDotEquiv drives the multi-accumulator dot kernels (the root of
// every tolerance-mode deviation) against the reference single chain
// with fuzzer-chosen lengths and bit patterns.
func FuzzFastDotEquiv(f *testing.F) {
	f.Add(uint64(1), uint64(2), 17)
	f.Add(uint64(0x3ff0000000000000), uint64(0xbff0000000000000), 64)
	f.Add(uint64(0x0010000000000000), uint64(0x7fe0000000000000), 5)
	fast := NewFast(1).(*fastBackend)
	f.Fuzz(func(t *testing.T, xs, ys uint64, n int) {
		if n < 0 || n > 512 {
			t.Skip()
		}
		r := newTestRand(int64(xs ^ ys))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.normal() * math.Float64frombits(xs&0x7ff0000000000000|0x3ff0000000000000) / 2
			y[i] = r.normal()
		}
		// Keep magnitudes finite so the bound is meaningful.
		var mag float64
		for i := range x {
			if math.IsInf(x[i], 0) || math.IsNaN(x[i]) {
				t.Skip()
			}
			mag += math.Abs(x[i] * y[i])
		}
		if math.IsInf(mag, 0) {
			t.Skip()
		}
		var ref float64
		for i := range x {
			ref += x[i] * y[i]
		}
		got := fast.dot(x, y)
		if d := math.Abs(got - ref); d > dotBound(n, mag) {
			t.Fatalf("dot len %d off by %g (bound %g)", n, d, dotBound(n, mag))
		}
		alt := dot4c(x, y)
		if d := math.Abs(alt - ref); d > dotBound(n, mag) {
			t.Fatalf("dot4c len %d off by %g (bound %g)", n, d, dotBound(n, mag))
		}
	})
}
