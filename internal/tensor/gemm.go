package tensor

import "fmt"

// Batched GEMM kernel layer. Every kernel in this file writes into a
// caller-provided destination and allocates nothing, so training loops can
// reuse workspaces across mini-batches and epochs.
//
// Determinism contract (relied on by nn, surrogate and the equivalence
// tests): for every destination element, the contracted-dimension terms are
// accumulated in strictly increasing index order on a single accumulator
// chain — the same order as the scalar MatVec/VecMat/MatMul loops and the
// per-sample training loops these kernels replace. Instruction-level
// parallelism comes only from computing many *independent* destination
// elements concurrently (contiguous inner loops over a destination row),
// never from splitting one element's sum across multiple accumulators,
// so results are bit-identical to the scalar paths. Cache blocking
// partitions the contracted dimension into contiguous chunks processed in
// increasing order, which preserves the per-element accumulation order.
//
// Skipping a zero multiplier is bitwise neutral here: every destination
// starts the accumulation at +0, and IEEE-754 addition can only produce
// -0 from (-0) + (-0), so a partial sum that began at +0 is never -0 and
// x + (±0·y) == x for every partial sum x that can arise. The kernels
// exploit this to skip zero input elements (sparse image rows) exactly
// like MatMul and VecMat do.
//
// Since the backend split (see backend.go), the exported functions below
// validate shapes and dispatch to the active Backend; the loop bodies live
// in range-parameterized helpers (gemmRows, gemmTACols, ...) shared by the
// reference backend (full range, this file's contract verbatim) and the
// fast backend's partitioned parallel paths (each partition owns a disjoint
// destination range, so the per-element chains are untouched).

// gemmBlock is the contracted-dimension block size: 256 columns of float64
// per operand row is 2 KiB, so a block of the streamed operand stays
// resident in L1/L2 while the destination row is swept.
const gemmBlock = 256

// Gemm computes dst = a·b, overwriting dst. It panics on shape mismatch
// (dst must be a.Rows() x b.Cols() and a.Cols() == b.Rows()). With the
// default backend the result is bit-identical to a.MatMul(b).
//
//xbar:hotpath
func Gemm(dst, a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: Gemm shape %dx%d by %dx%d into %dx%d",
			a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	Active().Gemm(dst, a, b)
}

// gemmRows runs the Gemm axpy kernel for destination rows [i0, i1).
// Partitioning by destination row leaves every element's accumulator chain
// intact, so any union of disjoint row ranges reproduces the full-range
// result bit-for-bit.
func gemmRows(dst, a, b *Matrix, i0, i1 int) {
	n := b.cols
	for i := i0; i < i1; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for k0 := 0; k0 < a.cols; k0 += gemmBlock {
			k1 := k0 + gemmBlock
			if k1 > a.cols {
				k1 = a.cols
			}
			for k := k0; k < k1; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.data[k*n : (k+1)*n]
				for j, v := range brow {
					drow[j] += aik * v
				}
			}
		}
	}
}

// GemmTA computes dst = aᵀ·b, overwriting dst, for a (k x m) and b (k x n)
// with dst m x n. The contracted dimension is the shared row index of a
// and b, accumulated in increasing order — exactly the order in which a
// per-sample loop sums outer products δ_k·u_kᵀ over a mini-batch, so a
// whole batch-gradient sum is one GemmTA call.
//
//xbar:hotpath
func GemmTA(dst, a, b *Matrix) {
	if a.rows != b.rows || dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: GemmTA shape %dx%d by %dx%d into %dx%d",
			a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	Active().GemmTA(dst, a, b)
}

// gemmTACols runs the GemmTA kernel for destination columns [c0, c1).
// Partitioning by destination column keeps each element's chain intact
// (every (i, j) is owned by exactly one column range), so partitions
// compose bit-identically.
//
// Access pattern (this is why GemmTA trailed GemmTB at the same shape —
// 0.38 vs 0.29 ms in BENCH_8): the kernel is a streaming axpy. The
// contracted (sample) index k is the outer loop, so each sample row of b
// is read once and stays L1-resident while the column of a for that k
// scatters it across all m destination rows; column blocks (jBlock) keep
// the destination slab cache-resident across the whole batch. The cost is
// that the m·n destination slab is re-swept — loaded and stored — once
// per group of samples, and that read-modify-write traffic, not the
// multiplies, bounds the kernel. GemmTB by contrast holds its accumulators
// in registers and touches each destination element exactly once. The fix
// that preserves accumulation order is to widen the sample group: grouping
// g samples per sweep divides the destination load/store traffic by g
// while still adding each element's terms in increasing k on one chain.
// The pairing below is 4-wide (it was 2-wide when BENCH_8 was recorded);
// wider pairing was measured slower — register pressure starts evicting
// the b-row pointers. (A register-tiled dot orientation was measured
// slower still: it re-streams b once per destination row.)
func gemmTACols(dst, a, b *Matrix, c0, c1 int) {
	m, n := a.cols, b.cols
	for i := 0; i < dst.rows; i++ {
		drow := dst.data[i*n+c0 : i*n+c1]
		for j := range drow {
			drow[j] = 0
		}
	}
	const jBlock = 512
	for j0 := c0; j0 < c1; j0 += jBlock {
		j1 := j0 + jBlock
		if j1 > c1 {
			j1 = c1
		}
		k := 0
		for ; k+4 <= a.rows; k += 4 {
			a0 := a.data[k*m : (k+1)*m]
			a1 := a.data[(k+1)*m : (k+2)*m]
			a2 := a.data[(k+2)*m : (k+3)*m]
			a3 := a.data[(k+3)*m : (k+4)*m]
			b0 := b.data[k*n+j0 : k*n+j1]
			b1 := b.data[(k+1)*n+j0 : (k+1)*n+j1]
			b2 := b.data[(k+2)*n+j0 : (k+2)*n+j1]
			b3 := b.data[(k+3)*n+j0 : (k+3)*n+j1]
			for i := range a0 {
				x0, x1, x2, x3 := a0[i], a1[i], a2[i], a3[i]
				if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
					continue
				}
				drow := dst.data[i*n+j0 : i*n+j1]
				drow = drow[:len(b0)]
				b1v := b1[:len(b0)]
				b2v := b2[:len(b0)]
				b3v := b3[:len(b0)]
				for j, bv := range b0 {
					t := drow[j] + x0*bv
					t += x1 * b1v[j]
					t += x2 * b2v[j]
					drow[j] = t + x3*b3v[j]
				}
			}
		}
		for ; k+2 <= a.rows; k += 2 {
			a0 := a.data[k*m : (k+1)*m]
			a1 := a.data[(k+1)*m : (k+2)*m]
			b0 := b.data[k*n+j0 : k*n+j1]
			b1 := b.data[(k+1)*n+j0 : (k+1)*n+j1]
			for i := range a0 {
				x0, x1 := a0[i], a1[i]
				if x0 == 0 && x1 == 0 {
					continue
				}
				drow := dst.data[i*n+j0 : i*n+j1]
				drow = drow[:len(b0)]
				b1v := b1[:len(b0)]
				for j, bv := range b0 {
					t := drow[j] + x0*bv
					drow[j] = t + x1*b1v[j]
				}
			}
		}
		for ; k < a.rows; k++ {
			arow := a.data[k*m : (k+1)*m]
			brow := b.data[k*n+j0 : k*n+j1]
			for i, aki := range arow {
				if aki == 0 {
					continue
				}
				drow := dst.data[i*n+j0 : i*n+j1]
				drow = drow[:len(brow)]
				for j, bv := range brow {
					drow[j] += aki * bv
				}
			}
		}
	}
}

// GemmTB computes dst = a·bᵀ, overwriting dst, for a (m x k) and b (n x k)
// with dst m x n. Each destination element is the dot product of a row of
// a and a row of b, accumulated over the contracted dimension in
// increasing order — the same chain as MatVec — but four destination
// elements advance together through four contiguous streams of b, giving
// four independent accumulator chains instead of MatVec's single
// latency-bound chain (a single element's chain cannot be split without
// changing the result; the fast backend does exactly that, under the
// tolerance contract).
//
//xbar:hotpath
func GemmTB(dst, a, b *Matrix) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("tensor: GemmTB shape %dx%d by %dx%d into %dx%d",
			a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	Active().GemmTB(dst, a, b)
}

// gemmTBRows runs the GemmTB dot kernel for destination rows [i0, i1);
// row partitions compose bit-identically.
func gemmTBRows(dst, a, b *Matrix, i0, i1 int) {
	kdim := a.cols
	n := b.rows
	for i := i0; i < i1; i++ {
		arow := a.data[i*kdim : (i+1)*kdim]
		drow := dst.data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.data[j*kdim : (j+1)*kdim]
			b1 := b.data[(j+1)*kdim : (j+2)*kdim]
			b2 := b.data[(j+2)*kdim : (j+3)*kdim]
			b3 := b.data[(j+3)*kdim : (j+4)*kdim]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
		}
		for ; j+2 <= n; j += 2 {
			b0 := b.data[j*kdim : (j+1)*kdim]
			b1 := b.data[(j+1)*kdim : (j+2)*kdim]
			var s0, s1 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
			}
			drow[j] = s0
			drow[j+1] = s1
		}
		for ; j < n; j++ {
			brow := b.data[j*kdim : (j+1)*kdim]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

// MatVecInto computes dst = m·x without allocating; with the default
// backend it is bit-identical to MatVec. dst and x must not alias. It
// panics on length mismatch.
//
//xbar:hotpath
func MatVecInto(dst []float64, m *Matrix, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("tensor: MatVecInto %dx%d by %d into %d", m.rows, m.cols, len(x), len(dst)))
	}
	Active().MatVecInto(dst, m, x)
}

// matVecRows runs the MatVec dot kernel for destination rows [i0, i1).
func matVecRows(dst []float64, m *Matrix, x []float64, i0, i1 int) {
	for i := i0; i < i1; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// VecMatInto computes dst = xᵀ·m without allocating; bit-identical to
// VecMat. dst and x must not alias. It panics on length mismatch.
//
//xbar:hotpath
func VecMatInto(dst []float64, x []float64, m *Matrix) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("tensor: VecMatInto %d by %dx%d into %d", len(x), m.rows, m.cols, len(dst)))
	}
	Active().VecMatInto(dst, x, m)
}

// vecMatCols runs the VecMat axpy kernel for destination columns [j0, j1);
// column partitions compose bit-identically (the contracted dimension is
// the row index, swept in increasing order for every column).
func vecMatCols(dst []float64, x []float64, m *Matrix, j0, j1 int) {
	for j := j0; j < j1; j++ {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols+j0 : i*m.cols+j1]
		dcol := dst[j0:j1]
		dcol = dcol[:len(row)]
		for j, v := range row {
			dcol[j] += xi * v
		}
	}
}

// SGDMomentumStep performs the classical momentum update in one fused
// sweep: v ← µ·v + gs·g (+ ws·w when decay), then w ← w + v. The
// per-element operation sequence is exactly Scale + AddScaled (+
// AddScaled) + AddMatrix — elements are independent, so fusing the four
// passes into one changes memory traffic only, never a bit of the result.
//
//xbar:hotpath
func SGDMomentumStep(w, v, g *Matrix, mu, gs float64, decay bool, ws float64) {
	w.sameShape(v, "SGDMomentumStep")
	w.sameShape(g, "SGDMomentumStep")
	Active().SGDMomentumStep(w, v, g, mu, gs, decay, ws)
}

// sgdSpan runs the fused momentum update for flat elements [k0, k1); the
// update is purely element-wise, so any partition of the flat range
// composes bit-identically.
func sgdSpan(w, v, g *Matrix, mu, gs float64, decay bool, ws float64, k0, k1 int) {
	wd, vd, gd := w.data[k0:k1], v.data[k0:k1], g.data[k0:k1]
	vd = vd[:len(wd)]
	gd = gd[:len(wd)]
	if decay {
		for k := range wd {
			x := vd[k] * mu
			x += gs * gd[k]
			x += ws * wd[k]
			vd[k] = x
			wd[k] += x
		}
		return
	}
	for k := range wd {
		x := vd[k] * mu
		x += gs * gd[k]
		vd[k] = x
		wd[k] += x
	}
}

// RowSpan returns a view of rows [i, j) sharing m's backing array — no
// copy. Mutating the view mutates m. It panics if the range is invalid.
func (m *Matrix) RowSpan(i, j int) *Matrix {
	if i < 0 || j < i || j > m.rows {
		panic(fmt.Sprintf("tensor: RowSpan [%d,%d) out of range for %d rows", i, j, m.rows))
	}
	return &Matrix{rows: j - i, cols: m.cols, data: m.data[i*m.cols : j*m.cols]}
}

// CopyRow copies row src of from into row dst of m; both matrices must
// have the same column count. A gather primitive for batched training
// (mini-batch rows arrive in shuffled order).
func (m *Matrix) CopyRow(dst int, from *Matrix, src int) {
	if m.cols != from.cols {
		panic(fmt.Sprintf("tensor: CopyRow width %d vs %d", m.cols, from.cols))
	}
	copy(m.Row(dst), from.Row(src))
}
