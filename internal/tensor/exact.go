package tensor

import "fmt"

// The exact kernels. GemmNarrow, PowerGrad and FusedSweep sit outside
// Backend: they compute the reference bits under every backend. The
// first two are the surrogate training step's forward and gradient, and
// at its shape they are faster than either backend's GemmTB; FusedSweep
// is the noise-free crossbar read of internal/crossbar for a group of
// inputs. Where the CPU probe finds AVX (archSIMD) they run in ymm lanes
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

// FusedSweepLanes is the most inputs one FusedSweep call takes: the AVX
// path gives each its own lane, two ymm registers per chain.
const FusedSweepLanes = 8

// FusedSweep is the noise-free crossbar read of Eq. (3) and Eq. (5) for
// one to eight inputs u_k = us[k] in one pass over the conductances:
//
//	outs[k][i] = Σ_j (diff_ij·u_kj)·vdd
//	totals[k]  = Σ_i Σ_j (sum_ij·u_kj)·vdd + Σ_j (mask_j·u_kj)·vdd
//
// overwriting outs[k][:rows] and totals. mask is nil or holds one
// element per column. Each output chain starts at +0 and adds its terms
// in increasing j; each total chain starts at +0 and adds row 0's terms,
// then row 1's, and so on, and the mask row's last. Every product is
// rounded before it is added, and no zero input is skipped: a chain that
// starts at +0 never reaches −0, so a ±0 term leaves it unchanged and
// the sums equal those of a sweep that skips them. The outputs must not
// overlap the inputs. It panics on a shape mismatch.
//
//xbar:hotpath
func FusedSweep(outs [][]float64, totals []float64, us [][]float64, diff, sum *Matrix, mask []float64, vdd float64) {
	rows, cols := diff.rows, diff.cols
	if len(us) == 0 || len(us) > FusedSweepLanes || len(outs) != len(us) || len(totals) != len(us) ||
		sum.rows != rows || sum.cols != cols || (mask != nil && len(mask) != cols) {
		panic(fmt.Sprintf("tensor: FusedSweep of %d inputs into %d outputs and %d totals over %dx%d and %dx%d, %d mask",
			len(us), len(outs), len(totals), rows, cols, sum.rows, sum.cols, len(mask)))
	}
	for k, u := range us {
		if len(u) != cols || len(outs[k]) < rows {
			panic(fmt.Sprintf("tensor: FusedSweep input %d of length %d into %d outputs over %dx%d",
				k, len(u), len(outs[k]), rows, cols))
		}
	}
	if !exactSIMD || rows == 0 || cols == 0 {
		fusedSweepRows(outs, totals, us, diff, sum, mask, vdd)
		return
	}
	// Lanes past the last input repeat it: they compute its chains again
	// and store the same bits to its outputs.
	var in, out [FusedSweepLanes][]float64
	var tot [FusedSweepLanes]float64
	last := len(us) - 1
	for k := range in {
		in[k], out[k] = us[min(k, last)], outs[min(k, last)]
	}
	fusedSweepAVX(&out, &in, &tot, diff.data, sum.data, mask, rows, cols, vdd)
	copy(totals, tot[:])
}

// fusedSweepRows is FusedSweep's Go path: one sweep4 pass per four
// inputs, then sweep1 for each input left. A short last group does not
// fill a sweep4 pass with repeats: at the serving shape the pass costs
// about what three sweep1 passes do.
func fusedSweepRows(outs [][]float64, totals []float64, us [][]float64, diff, sum *Matrix, mask []float64, vdd float64) {
	k := 0
	for ; k+4 <= len(us); k += 4 {
		totals[k], totals[k+1], totals[k+2], totals[k+3] = sweep4(outs[k], outs[k+1], outs[k+2], outs[k+3],
			us[k], us[k+1], us[k+2], us[k+3], diff, sum, mask, vdd)
	}
	for ; k < len(us); k++ {
		totals[k] = sweep1(outs[k], us[k], diff, sum, mask, vdd)
	}
}

// sweep1 reads one input in FusedSweep's order: its output-row chains
// and its total chain. It writes o[:rows] and returns the total.
func sweep1(o, u []float64, diff, sum *Matrix, mask []float64, vdd float64) (t float64) {
	n := len(u)
	for i := 0; i < diff.rows; i++ {
		dRow := diff.Row(i)[:n]
		sRow := sum.Row(i)[:n]
		var c float64
		for j, a := range u {
			c += float64(dRow[j] * a * vdd)
			t += float64(sRow[j] * a * vdd)
		}
		o[i] = c
	}
	if mask != nil {
		mask = mask[:n]
		for j, a := range u {
			t += float64(mask[j] * a * vdd)
		}
	}
	return t
}

// sweep4 reads four inputs in one pass over each pair of conductance
// rows: eight chains, each input's output-row chain and its total chain,
// in FusedSweep's order. It writes o0..o3[:rows] and returns the totals.
func sweep4(o0, o1, o2, o3, u0, u1, u2, u3 []float64, diff, sum *Matrix, mask []float64, vdd float64) (t0, t1, t2, t3 float64) {
	n := len(u0)
	u1, u2, u3 = u1[:n], u2[:n], u3[:n]
	for i := 0; i < diff.rows; i++ {
		dRow := diff.Row(i)[:n]
		sRow := sum.Row(i)[:n]
		var c0, c1, c2, c3 float64
		for j, a := range u0 {
			d, s := dRow[j], sRow[j]
			c0 += float64(d * a * vdd)
			t0 += float64(s * a * vdd)
			a = u1[j]
			c1 += float64(d * a * vdd)
			t1 += float64(s * a * vdd)
			a = u2[j]
			c2 += float64(d * a * vdd)
			t2 += float64(s * a * vdd)
			a = u3[j]
			c3 += float64(d * a * vdd)
			t3 += float64(s * a * vdd)
		}
		o0[i], o1[i], o2[i], o3[i] = c0, c1, c2, c3
	}
	if mask != nil {
		mask = mask[:n]
		for j, a := range u0 {
			m := mask[j]
			t0 += float64(m * a * vdd)
			t1 += float64(m * u1[j] * vdd)
			t2 += float64(m * u2[j] * vdd)
			t3 += float64(m * u3[j] * vdd)
		}
	}
	return t0, t1, t2, t3
}
