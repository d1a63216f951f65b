package tensor

import "fmt"

// The exact kernels. GemmNarrow and PowerGrad sit outside Backend: both
// compute the reference bits under every backend, and at the surrogate
// training step's shape they are faster than either backend's GemmTB.
// Where the CPU probe finds AVX (archSIMD) they run in ymm lanes
// (exact_amd64.s); elsewhere they run the Go loops below, which are also
// their test oracle. Each lane is one destination element, and every
// product is rounded before it is added (VMULPD then VADDPD, never an
// FMA), so every element's chain is the scalar one and both paths
// produce the same bits.

// exactSIMD selects the exact kernels' AVX paths. It is set once from the
// CPU probe; tests clear it to reach the Go paths.
var exactSIMD = archSIMD()

// GemmNarrow computes dst = a·b, overwriting dst, for a (m x k) and b
// (k x n) with dst m x n. It panics on shape mismatch. Every element
// starts at +0 and adds a_ik·b_kj in increasing k on one chain, as Gemm
// does under Reference(), so for finite operands the two agree bit for
// bit whichever backend is active. The AVX path keeps four rows by up
// to 12 columns of dst in registers for the whole k loop (wider b in
// 12-column panels), which suits a narrow b such as the surrogate's
// [Wᵀ | ‖W_:,j‖₁].
//
//xbar:hotpath
func GemmNarrow(dst, a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: GemmNarrow shape %dx%d by %dx%d into %dx%d",
			a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	if !exactSIMD || a.rows == 0 || a.cols == 0 || b.cols == 0 {
		gemmRows(dst, a, b, 0, a.rows)
		return
	}
	gemmNarrowAVX(dst.data, a.data, b.data, a.rows, a.cols, b.cols)
}

// PowerGrad computes the surrogate's summed output-and-power gradient
//
//	grad = Σ_b (d_b ⊗ u_b + sgn ∘ (c_b·u_b)),
//
// overwriting grad (m x n), for deltas d (B x m), inputs u (B x n), signs
// sgn (m x n) and coefficients c (B). It panics on shape mismatch. Each
// element (i, j) adds, for each sample b in increasing order, d_bi·u_bj
// and then sgn_ij·(c_b·u_bj), on one chain that begins at +0, so the sum
// is bit-identical to a per-sample loop. Both paths sweep a gradient row
// once per four samples; the AVX path does it four elements per vector.
//
//xbar:hotpath
func PowerGrad(grad, d, u, sgn *Matrix, coeffs []float64) {
	if d.rows != len(coeffs) || u.rows != len(coeffs) || d.cols != grad.rows ||
		u.cols != grad.cols || sgn.rows != grad.rows || sgn.cols != grad.cols {
		panic(fmt.Sprintf("tensor: PowerGrad shape %dx%d, %dx%d and %dx%d signs, %d coefficients into %dx%d",
			d.rows, d.cols, u.rows, u.cols, sgn.rows, sgn.cols, len(coeffs), grad.rows, grad.cols))
	}
	if !exactSIMD || len(coeffs) == 0 {
		powerGradRows(grad, d, u, sgn, coeffs)
		return
	}
	clear(grad.data)
	for i := 0; i < grad.rows; i++ {
		powerGradRowAVX(grad.Row(i), sgn.Row(i), u.data, d.data[i:], d.cols, coeffs)
	}
}

// powerGradRows is PowerGrad's Go path. One pass over a gradient row adds
// four samples, as the GemmTA kernel groups them, so the row is loaded
// and stored once per four samples instead of twice per sample; the row
// and its signs stay in L1 while the samples stream past. A zero d_bi is
// not skipped: every input is finite, so its term is ±0, and adding ±0
// to a chain that began at +0 is bitwise neutral (see gemm.go).
func powerGradRows(grad, d, u, sgn *Matrix, coeffs []float64) {
	grad.Fill(0)
	for i := 0; i < grad.Rows(); i++ {
		g, s := grad.Row(i), sgn.Row(i)
		s = s[:len(g)]
		b := 0
		for ; b+4 <= len(coeffs); b += 4 {
			c0, c1, c2, c3 := coeffs[b], coeffs[b+1], coeffs[b+2], coeffs[b+3]
			x0, x1, x2, x3 := d.At(b, i), d.At(b+1, i), d.At(b+2, i), d.At(b+3, i)
			u0, u1, u2, u3 := u.Row(b), u.Row(b+1), u.Row(b+2), u.Row(b+3)
			u0, u1, u2, u3 = u0[:len(g)], u1[:len(g)], u2[:len(g)], u3[:len(g)]
			for j, t := range g {
				sj := s[j]
				t += x0 * u0[j]
				t += sj * (c0 * u0[j])
				t += x1 * u1[j]
				t += sj * (c1 * u1[j])
				t += x2 * u2[j]
				t += sj * (c2 * u2[j])
				t += x3 * u3[j]
				g[j] = t + sj*(c3*u3[j])
			}
		}
		for ; b < len(coeffs); b++ {
			c, x, ub := coeffs[b], d.At(b, i), u.Row(b)
			ub = ub[:len(g)]
			for j, t := range g {
				t += x * ub[j]
				g[j] = t + s[j]*(c*ub[j])
			}
		}
	}
}
