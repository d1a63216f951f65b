//go:build amd64

package tensor

// dotAVX2 computes the dot product of x and y (y at least as long as x)
// with AVX2+FMA: four vector lanes times four accumulator chains, reduced
// (s0+s1)+(s2+s3) then left-to-right across lanes. Callers must check
// cpuHasAVX2FMA first.
//
//go:noescape
func dotAVX2(x, y []float64) float64

// gemmTAQuadAVX2 applies one four-sample GemmTA axpy sweep: for each i in
// [0, len(a0)), dst[i*stride : i*stride+len(b0)] accumulates
// a0[i]*b0 + a1[i]*b1 + a2[i]*b2 + a3[i]*b3 with FMA, terms in increasing
// sample order. a1..a3 must have len(a0) elements and b1..b3 len(b0);
// dst must cover (len(a0)-1)*stride + len(b0) elements.
//
//go:noescape
func gemmTAQuadAVX2(dst []float64, stride int, a0, a1, a2, a3, b0, b1, b2, b3 []float64)

// gemmNarrowAVX computes dst = a·b for dense row-major a (rows x k) and
// b (k x n), rows, k, n >= 1: the AVX path of GemmNarrow (exact_amd64.s).
//
//go:noescape
func gemmNarrowAVX(dst, a, b []float64, rows, k, n int)

// powerGradRowAVX adds one gradient row's power-loss terms to g, sample
// after sample: the AVX path of PowerGrad's row pass (exact_amd64.s).
// u must hold len(coeffs) rows of len(g) elements, s len(g) elements and
// d an element every dstride for each sample.
//
//go:noescape
func powerGradRowAVX(g, s, u, d []float64, dstride int, coeffs []float64)

// fusedSweepAVX reads the eight inputs us against dense rows x cols
// conductances, rows, cols >= 1, writing input k's output row i to
// outs[k][i] and its total to totals[k]: the AVX path of FusedSweep
// (exact_amd64.s). mask is empty or holds cols elements.
//
//go:noescape
func fusedSweepAVX(outs, us *[8][]float64, totals *[8]float64, diff, sum, mask []float64, rows, cols int, vdd float64)

// cpuHasAVX2FMA reports whether the CPU and OS support AVX2 and FMA.
// The probe is stable for the life of the machine — same class of
// environment fact as GOMAXPROCS, not ambient nondeterminism.
func cpuHasAVX2FMA() bool

// archSIMD reports whether the SIMD kernel set is usable on this machine.
func archSIMD() bool { return cpuHasAVX2FMA() }
