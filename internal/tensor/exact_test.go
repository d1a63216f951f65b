package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// exactOperand draws one operand entry. With probability special/256 it
// is one of the values where a wrong lane, a fused rounding or a skipped
// term shows: +0, −0, a subnormal, or a magnitude near 1e±300 (whose
// products overflow to ±Inf or underflow to zero, and whose sums can
// reach NaN). Otherwise it is a standard normal deviate.
func exactOperand(r *rand.Rand, special uint8) float64 {
	if r.Intn(256) >= int(special) {
		return r.NormFloat64()
	}
	sign := 1.0
	if r.Intn(2) == 0 {
		sign = -1
	}
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return sign * math.Float64frombits(1+uint64(r.Int63n(1<<52-1)))
	case 3:
		return sign * (1 + r.Float64()) * 1e300
	default:
		return sign * (1 + r.Float64()) * 1e-300
	}
}

func exactMatrix(r *rand.Rand, special uint8, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = exactOperand(r, special)
	}
	return m
}

// guarded returns a rows x cols matrix whose backing array runs one
// guard row past its end, filled with NaN so that an element the kernel
// fails to write differs from every computed value, and the guard row.
func guarded(rows, cols int) (*Matrix, []float64) {
	full := New(rows+1, cols)
	full.Fill(math.NaN())
	return full.RowSpan(0, rows), full.data[rows*cols:]
}

// runExact runs fn with the exact kernels' AVX paths on or off.
func runExact(simd bool, fn func()) {
	prev := exactSIMD
	exactSIMD = simd
	defer func() { exactSIMD = prev }()
	fn()
}

// checkExactKernels runs both exact kernels down both paths on the same
// operands and fails on any output bit that differs, or on a write past
// the destination. rows is GemmNarrow's row count and PowerGrad's sample
// count (the four-row and four-sample groups), inner GemmNarrow's
// contracted length and PowerGrad's row length (the four-lane loop), and
// width GemmNarrow's output width and PowerGrad's gradient row count
// (the 12-column panels).
func checkExactKernels(t *testing.T, rows, inner, width int, seed int64, special uint8) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))

	a := exactMatrix(r, special, rows, inner)
	b := exactMatrix(r, special, inner, width)
	want, _ := guarded(rows, width)
	got, guard := guarded(rows, width)
	runExact(false, func() { GemmNarrow(want, a, b) })
	runExact(true, func() { GemmNarrow(got, a, b) })
	shape := fmt.Sprintf("rows=%d inner=%d width=%d", rows, inner, width)
	compareExact(t, "GemmNarrow "+shape, got.data, want.data, guard)

	d := exactMatrix(r, special, rows, width)
	u := exactMatrix(r, special, rows, inner)
	sgn := exactMatrix(r, special, width, inner)
	coeffs := make([]float64, rows)
	for i := range coeffs {
		coeffs[i] = exactOperand(r, special)
	}
	wantG, _ := guarded(width, inner)
	gotG, guardG := guarded(width, inner)
	runExact(false, func() { PowerGrad(wantG, d, u, sgn, coeffs) })
	runExact(true, func() { PowerGrad(gotG, d, u, sgn, coeffs) })
	compareExact(t, "PowerGrad "+shape, gotG.data, wantG.data, guardG)
}

func compareExact(t *testing.T, what string, got, want, guard []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), Go path %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for i, v := range guard {
		if !math.IsNaN(v) {
			t.Fatalf("%s: wrote %v %d elements past the destination", what, v, i+1)
		}
	}
}

// checkFusedSweep runs FusedSweep down both paths on the same lanes
// inputs against rows x cols conductances, with or without the mask row,
// and fails on any output or total bit that differs, or on a write past
// an input's output row or the totals: each sits in front of a NaN
// guard.
func checkFusedSweep(t *testing.T, lanes, rows, cols int, masked bool, seed int64, special uint8) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	diff, sum := exactMatrix(r, special, rows, cols), exactMatrix(r, special, rows, cols)
	var mask []float64
	if masked {
		mask = exactMatrix(r, special, 1, cols).Row(0)
	}
	vdd := exactOperand(r, special)
	us := make([][]float64, lanes)
	for k := range us {
		us[k] = exactMatrix(r, special, 1, cols).Row(0)
	}
	run := func(simd bool) (outs [][]float64, totals []float64, guards [][]float64) {
		outs = make([][]float64, lanes)
		for k := range outs {
			o, guard := guarded(1, rows)
			outs[k] = o.Row(0)
			guards = append(guards, guard)
		}
		tot, guard := guarded(1, lanes)
		runExact(simd, func() { FusedSweep(outs, tot.Row(0), us, diff, sum, mask, vdd) })
		return outs, tot.Row(0), append(guards, guard)
	}
	wantOuts, wantTotals, _ := run(false)
	gotOuts, gotTotals, guards := run(true)
	shape := fmt.Sprintf("FusedSweep lanes=%d rows=%d cols=%d masked=%v", lanes, rows, cols, masked)
	for k := range wantOuts {
		compareExact(t, fmt.Sprintf("%s input %d outputs", shape, k), gotOuts[k], wantOuts[k], guards[k])
	}
	compareExact(t, shape+" totals", gotTotals, wantTotals, guards[lanes])
}

// TestExactKernelsEveryTail sweeps every shape the fuzz target reaches —
// rows 1–9, inner lengths 1–40, widths 1–30 — once with plain operands
// and once with a quarter of them special.
func TestExactKernelsEveryTail(t *testing.T) {
	if !archSIMD() {
		t.Skip("no AVX path on this machine: the exact kernels run their Go loops only")
	}
	seed := int64(1)
	for rows := 1; rows <= 9; rows++ {
		for inner := 1; inner <= 40; inner++ {
			for width := 1; width <= 30; width++ {
				for _, special := range []uint8{0, 64} {
					seed++
					checkExactKernels(t, rows, inner, width, seed, special)
				}
			}
		}
	}
}

// TestFusedSweepEveryShape sweeps every lane count FusedSweep takes, 1–8,
// over rows 1–12 and columns 1–40 (the four-column blocks and every
// column tail), with and without the mask row, once with plain operands
// and once with a quarter of them special.
func TestFusedSweepEveryShape(t *testing.T) {
	if !archSIMD() {
		t.Skip("no AVX path on this machine: the exact kernels run their Go loops only")
	}
	seed := int64(1)
	for lanes := 1; lanes <= FusedSweepLanes; lanes++ {
		for rows := 1; rows <= 12; rows++ {
			for cols := 1; cols <= 40; cols++ {
				for _, masked := range []bool{false, true} {
					for _, special := range []uint8{0, 64} {
						seed++
						checkFusedSweep(t, lanes, rows, cols, masked, seed, special)
					}
				}
			}
		}
	}
}

// FuzzExactKernels compares the exact kernels' AVX paths with their Go
// paths, bit for bit, on fuzzed shapes and operands. FusedSweep reads
// rows mod 8 plus one inputs against width mod 12 plus one conductance
// rows of inner mod 40 plus one columns, with the mask row when seed is
// odd. Its seeds are the committed corpus in
// testdata/fuzz/FuzzExactKernels.
func FuzzExactKernels(f *testing.F) {
	if !archSIMD() {
		f.Skip("no AVX path on this machine: the exact kernels run their Go loops only")
	}
	f.Fuzz(func(t *testing.T, rows, inner, width uint8, seed int64, special uint8) {
		checkExactKernels(t, int(rows)%9+1, int(inner)%40+1, int(width)%30+1, seed, special)
		checkFusedSweep(t, int(rows)%FusedSweepLanes+1, int(width)%12+1, int(inner)%40+1, seed&1 == 1, seed, special)
	})
}

// TestExactKernelsMatchReference pins GemmNarrow, on whichever path this
// machine takes, to the kernel it replaces in surrogate training: the
// reference GemmTB against the transposed operand, at the step's shape
// and two odd ones.
func TestExactKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, s := range []struct{ rows, inner, width int }{{32, 784, 11}, {7, 37, 13}, {1, 1, 1}} {
		a := exactMatrix(r, 0, s.rows, s.inner)
		bt := exactMatrix(r, 0, s.width, s.inner)
		got := New(s.rows, s.width)
		GemmNarrow(got, a, bt.T())
		want := New(s.rows, s.width)
		Reference().GemmTB(want, a, bt)
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Fatalf("%dx%d by %d: element %d is %v, GemmTB %v", s.rows, s.inner, s.width, i, got.data[i], want.data[i])
			}
		}
	}
}

// BenchmarkExactKernels runs each exact kernel at its production shape
// down both paths: the AVX one where this machine has it, and the Go
// loop every host without AVX runs. GemmNarrow and PowerGrad take the
// surrogate training step's shapes (32 samples of 784 inputs, 10
// outputs; GemmNarrow's operand carries the extra norm column), and
// FusedSweep one full group of a CIFAR-like serving batch (eight inputs
// against 10 x 3072 conductances).
func BenchmarkExactKernels(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	a, bt, dst := exactMatrix(r, 0, 32, 784), exactMatrix(r, 0, 784, 11), New(32, 11)
	grad, d, u, sgn := New(10, 784), exactMatrix(r, 0, 32, 10), exactMatrix(r, 0, 32, 784), exactMatrix(r, 0, 10, 784)
	coeffs := exactMatrix(r, 0, 1, 32).Row(0)
	diff, sum := exactMatrix(r, 0, 10, 3072), exactMatrix(r, 0, 10, 3072)
	us, outs, totals := make([][]float64, FusedSweepLanes), make([][]float64, FusedSweepLanes), make([]float64, FusedSweepLanes)
	for k := range us {
		us[k], outs[k] = exactMatrix(r, 0, 1, 3072).Row(0), make([]float64, 10)
	}
	kernels := []struct {
		name string
		run  func()
	}{
		{"GemmNarrow", func() { GemmNarrow(dst, a, bt) }},
		{"PowerGrad", func() { PowerGrad(grad, d, u, sgn, coeffs) }},
		{"FusedSweep", func() { FusedSweep(outs, totals, us, diff, sum, nil, 0.2) }},
	}
	for _, k := range kernels {
		for _, path := range []struct {
			name string
			simd bool
		}{{"avx", true}, {"go", false}} {
			b.Run(k.name+"/"+path.name, func(b *testing.B) {
				if path.simd && !archSIMD() {
					b.Skip("no AVX path on this machine")
				}
				runExact(path.simd, func() {
					for i := 0; i < b.N; i++ {
						k.run()
					}
				})
			})
		}
	}
}
