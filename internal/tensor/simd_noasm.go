//go:build !amd64

package tensor

// Portable stubs: archSIMD reports false, so the fast backend and the
// exact kernels route every call to the pure-Go paths and these bodies
// are unreachable.

func dotAVX2(x, y []float64) float64 {
	panic("tensor: dotAVX2 without SIMD support")
}

func gemmTAQuadAVX2(dst []float64, stride int, a0, a1, a2, a3, b0, b1, b2, b3 []float64) {
	panic("tensor: gemmTAQuadAVX2 without SIMD support")
}

func gemmNarrowAVX(dst, a, b []float64, rows, k, n int) {
	panic("tensor: gemmNarrowAVX without SIMD support")
}

func powerGradRowAVX(g, s, u, d []float64, dstride int, coeffs []float64) {
	panic("tensor: powerGradRowAVX without SIMD support")
}

func fusedSweepAVX(outs, us *[8][]float64, totals *[8]float64, diff, sum, mask []float64, rows, cols int, vdd float64) {
	panic("tensor: fusedSweepAVX without SIMD support")
}

func archSIMD() bool { return false }
