package tensor

import "xbarsec/internal/pool"

// The fast backend. Three techniques, two contracts:
//
//  1. Partitioned parallelism (all six kernels): destination rows /
//     columns / flat spans are split into one contiguous range per worker.
//     Every destination element is owned by exactly one range, so the
//     partition never changes what is computed for an element — for a
//     fixed input the fast backend returns identical bits at every worker
//     count.
//
//  2. Bit-exact kernels (VecMatInto, SGDMomentumStep): each range
//     runs the same reference kernel, so these two are
//     byte-for-byte identical to Reference().
//
//  3. Unrolled/fused kernels (Gemm, GemmTB, MatVecInto, GemmTA): the
//     latency-bound single-chain accumulations are replaced by
//     multi-accumulator versions — AVX2+FMA assembly where the CPU
//     supports it (simd_amd64.s), four-wide pure-Go unrolls otherwise.
//     Splitting a sum across chains (and fusing multiply-add) can change
//     rounding, so these four are NOT bit-identical to the reference;
//     backend_equiv_test.go pins them to the standard
//     reordered-summation bound |fast−ref| ≤ c·k·eps·Σ|aᵢ·bᵢ|, which
//     covers both chain splits and FMA's single rounding. (Gemm's
//     accumulation ORDER is actually preserved — four-wide sample
//     grouping on one chain — so only the FMA path deviates, and only
//     by fused roundings; it still lives under the tolerance contract
//     because BitExact() describes the whole backend on any machine.)
//     GemmTB also swaps its loop order by shape (stream the smaller
//     operand) — a pure traversal change, per-element dots are
//     unaffected.
//
// Whether the SIMD kernels are used is fixed when the backend is
// constructed (CPUID probe), not per call; a fastBackend value fully
// describes its numeric behavior on a given machine.
//
// Small operands skip the pool entirely (fastMinFlop), so serving-path
// calls on tiny shapes stay allocation-free; the serial path runs the
// same kernels, so the threshold never changes a result.

// fastMinFlop is the approximate multiply-add count below which fanning
// out is pure overhead (goroutine wake + closure) and the fast backend
// runs the kernel inline. ~64k mul-adds is a few microseconds of work,
// an order of magnitude above the pool's dispatch cost.
const fastMinFlop = 1 << 16

type fastBackend struct {
	// workers is the pool fan-out per kernel call; 0 selects the runnable
	// proc count (pool.Workers). Fixed at construction so a backend value
	// fully describes its behavior.
	workers int
	// simd gates the AVX2+FMA kernels; probed once at construction.
	simd bool
}

// NewFast returns the fast backend: reference-kernel parallelism over
// destination partitions plus multi-accumulator dot kernels (AVX2+FMA
// when available), under the tolerance contract documented above.
// workers <= 0 selects the runnable proc count at each call
// (pool.Workers semantics).
func NewFast(workers int) Backend {
	return &fastBackend{workers: workers, simd: archSIMD()}
}

func (f *fastBackend) Name() string   { return FastName }
func (f *fastBackend) BitExact() bool { return false }

// split returns the number of contiguous partitions to fan n destination
// units across, given ~flop mul-adds of total work: 1 when the pool would
// be overhead (small op or single worker), else the worker count capped
// by n.
func (f *fastBackend) split(n int, flop int) int {
	if n <= 1 || flop < fastMinFlop {
		return 1
	}
	w := pool.Workers(f.workers)
	if w > n {
		w = n
	}
	return w
}

// dot is the backend's dot product: AVX2+FMA when the machine supports
// it, else the four-chain pure-Go kernel. Both reorder relative to the
// reference single chain (tolerance contract). y must be at least as
// long as x.
//
//xbar:hotpath
func (f *fastBackend) dot(x, y []float64) float64 {
	if f.simd {
		return dotAVX2(x, y)
	}
	return dot4c(x, y)
}

//xbar:hotpath
func (f *fastBackend) Gemm(dst, a, b *Matrix) {
	rows := a.rows
	w := f.split(rows, rows*a.cols*b.cols)
	if w == 1 {
		f.gemmRowSpan(dst, a, b, 0, rows)
		return
	}
	pool.Do(w, w, func(p int) {
		f.gemmRowSpan(dst, a, b, p*rows/w, (p+1)*rows/w)
	})
}

// gemmRowSpan computes destination rows [i0, i1) of dst = a·b with the
// unrolled axpy kernel: AVX2+FMA when available, the four-wide pure-Go
// pairing otherwise. Row partitions compose bit-identically (each row is
// owned by exactly one range).
//
//xbar:hotpath
func (f *fastBackend) gemmRowSpan(dst, a, b *Matrix, i0, i1 int) {
	if !f.simd {
		gemmRowsQuad(dst, a, b, i0, i1)
		return
	}
	gemmRowsSIMD(dst, a, b, i0, i1)
}

//xbar:hotpath
func (f *fastBackend) GemmTA(dst, a, b *Matrix) {
	cols := b.cols
	w := f.split(cols, a.rows*a.cols*cols)
	if w == 1 {
		f.gemmTASpan(dst, a, b, 0, cols)
		return
	}
	pool.Do(w, w, func(p int) {
		f.gemmTASpan(dst, a, b, p*cols/w, (p+1)*cols/w)
	})
}

//xbar:hotpath
func (f *fastBackend) GemmTB(dst, a, b *Matrix) {
	m, n := a.rows, b.rows
	flop := m * a.cols * n
	// Loop-order swap: both orientations compute the same per-element
	// dots over contiguous rows, so pick the outer loop that re-streams
	// the SMALLER operand — it stays resident in cache across outer
	// iterations while the larger operand is read once. Shape-only
	// decision, so it is deterministic and partition-stable.
	if m <= n {
		w := f.split(n, flop)
		if w == 1 {
			f.gemmTBCols(dst, a, b, 0, n)
			return
		}
		pool.Do(w, w, func(p int) {
			f.gemmTBCols(dst, a, b, p*n/w, (p+1)*n/w)
		})
		return
	}
	w := f.split(m, flop)
	if w == 1 {
		f.gemmTBRows(dst, a, b, 0, m)
		return
	}
	pool.Do(w, w, func(p int) {
		f.gemmTBRows(dst, a, b, p*m/w, (p+1)*m/w)
	})
}

//xbar:hotpath
func (f *fastBackend) MatVecInto(dst []float64, m *Matrix, x []float64) {
	rows := m.rows
	w := f.split(rows, rows*m.cols)
	if w == 1 {
		f.matVecRows(dst, m, x, 0, rows)
		return
	}
	pool.Do(w, w, func(p int) {
		f.matVecRows(dst, m, x, p*rows/w, (p+1)*rows/w)
	})
}

//xbar:hotpath
func (f *fastBackend) VecMatInto(dst []float64, x []float64, m *Matrix) {
	cols := m.cols
	w := f.split(cols, m.rows*cols)
	if w == 1 {
		vecMatCols(dst, x, m, 0, cols)
		return
	}
	pool.Do(w, w, func(p int) {
		vecMatCols(dst, x, m, p*cols/w, (p+1)*cols/w)
	})
}

//xbar:hotpath
func (f *fastBackend) SGDMomentumStep(w, v, g *Matrix, mu, gs float64, decay bool, ws float64) {
	n := len(w.data)
	p := f.split(n, n)
	if p == 1 {
		sgdSpan(w, v, g, mu, gs, decay, ws, 0, n)
		return
	}
	pool.Do(p, p, func(q int) {
		sgdSpan(w, v, g, mu, gs, decay, ws, q*n/p, (q+1)*n/p)
	})
}

// gemmTASpan computes destination columns [c0, c1) of dst = aᵀ·b. With
// SIMD it runs the fused quad-axpy kernel; otherwise it falls back to the
// reference column kernel (whose four-wide pairing is already the best
// scalar formulation — see gemmTACols).
//
//xbar:hotpath
func (f *fastBackend) gemmTASpan(dst, a, b *Matrix, c0, c1 int) {
	if !f.simd {
		gemmTACols(dst, a, b, c0, c1)
		return
	}
	gemmTAColsSIMD(dst, a, b, c0, c1)
}

// gemmTAColsSIMD computes destination columns [c0, c1) of dst = aᵀ·b with
// the AVX2+FMA quad-axpy kernel: samples are consumed four at a time, and
// for each group one assembly sweep walks every destination row applying
// row += a0[f]·b0 + a1[f]·b1 + a2[f]·b2 + a3[f]·b3 (a0..a3, b0..b3 are
// the group's contiguous rows of a and b). Terms apply in increasing
// sample order, matching the scalar pairing's order, but each term fuses
// multiply and add (FMA, single rounding) — tolerance contract.
//
//xbar:hotpath
func gemmTAColsSIMD(dst, a, b *Matrix, c0, c1 int) {
	m := a.cols // destination rows
	n := b.cols // destination stride
	s := a.rows // contracted samples
	for i := 0; i < m; i++ {
		row := dst.data[i*n+c0 : i*n+c1]
		for t := range row {
			row[t] = 0
		}
	}
	dbase := dst.data[c0:]
	k := 0
	for ; k+4 <= s; k += 4 {
		gemmTAQuadAVX2(dbase, n,
			a.data[k*m:(k+1)*m],
			a.data[(k+1)*m:(k+2)*m],
			a.data[(k+2)*m:(k+3)*m],
			a.data[(k+3)*m:(k+4)*m],
			b.data[k*n+c0:k*n+c1],
			b.data[(k+1)*n+c0:(k+1)*n+c1],
			b.data[(k+2)*n+c0:(k+2)*n+c1],
			b.data[(k+3)*n+c0:(k+3)*n+c1])
	}
	for ; k < s; k++ {
		arow := a.data[k*m : (k+1)*m]
		brow := b.data[k*n+c0 : k*n+c1]
		for i, x := range arow {
			if x == 0 {
				continue
			}
			row := dbase[i*n : i*n+len(brow)]
			for t, bv := range brow {
				row[t] += x * bv
			}
		}
	}
}

// gemmRowsSIMD computes destination rows [i0, i1) of dst = a·b with the
// AVX2+FMA quad-axpy sweep: for each destination row, the contracted
// terms are consumed four at a time — one assembly call applies
// drow += arow[k]·bₖ + arow[k+1]·bₖ₊₁ + arow[k+2]·bₖ₊₂ + arow[k+3]·bₖ₊₃
// (reusing the GemmTA quad kernel with one-element coefficient slices, so
// the sweep covers exactly this row). Terms apply in increasing k on one
// chain, matching the reference order; each term fuses multiply and add
// (single rounding) — tolerance contract. The destination row stays
// register/L1-resident across all of k, so no gemmBlock re-sweep of the
// streamed operand is needed.
//
//xbar:hotpath
func gemmRowsSIMD(dst, a, b *Matrix, i0, i1 int) {
	kdim := a.cols
	n := b.cols
	for i := i0; i < i1; i++ {
		arow := a.data[i*kdim : (i+1)*kdim]
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kdim; k += 4 {
			gemmTAQuadAVX2(drow, n,
				arow[k:k+1], arow[k+1:k+2], arow[k+2:k+3], arow[k+3:k+4],
				b.data[k*n:(k+1)*n],
				b.data[(k+1)*n:(k+2)*n],
				b.data[(k+2)*n:(k+3)*n],
				b.data[(k+3)*n:(k+4)*n])
		}
		for ; k < kdim; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.data[k*n : (k+1)*n]
			d := drow[:len(brow)]
			for j, bv := range brow {
				d[j] += aik * bv
			}
		}
	}
}

// gemmRowsQuad is the pure-Go unrolled Gemm row kernel: contracted terms
// grouped four at a time on one accumulator chain in increasing k (the
// same pairing gemmTACols uses), quartering the destination-row
// load/store traffic versus the reference one-k-at-a-time axpy. The
// chain order matches the reference exactly and Go does not fuse, so
// this path is bitwise identical to gemmRows; the group-level zero skip
// is bitwise neutral for the same reason the reference's per-k skip is
// (partial sums starting at +0 are never -0).
//
//xbar:hotpath
func gemmRowsQuad(dst, a, b *Matrix, i0, i1 int) {
	kdim := a.cols
	n := b.cols
	for i := i0; i < i1; i++ {
		arow := a.data[i*kdim : (i+1)*kdim]
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kdim; k += 4 {
			x0, x1, x2, x3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
				continue
			}
			b0 := b.data[k*n : (k+1)*n]
			b1 := b.data[(k+1)*n : (k+2)*n]
			b2 := b.data[(k+2)*n : (k+3)*n]
			b3 := b.data[(k+3)*n : (k+4)*n]
			d := drow[:len(b0)]
			b1v := b1[:len(b0)]
			b2v := b2[:len(b0)]
			b3v := b3[:len(b0)]
			for j, bv := range b0 {
				t := d[j] + x0*bv
				t += x1 * b1v[j]
				t += x2 * b2v[j]
				d[j] = t + x3*b3v[j]
			}
		}
		for ; k < kdim; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.data[k*n : (k+1)*n]
			d := drow[:len(brow)]
			for j, bv := range brow {
				d[j] += aik * bv
			}
		}
	}
}

// gemmTBCols computes destination columns [j0, j1) of dst = a·bᵀ,
// outer-loop over b's rows so that a (the smaller operand in this
// orientation) is re-streamed from cache while each b row is read once.
//
//xbar:hotpath
func (f *fastBackend) gemmTBCols(dst, a, b *Matrix, j0, j1 int) {
	kdim := a.cols
	n := b.rows
	for j := j0; j < j1; j++ {
		brow := b.data[j*kdim : (j+1)*kdim]
		for i := 0; i < a.rows; i++ {
			dst.data[i*n+j] = f.dot(a.data[i*kdim:(i+1)*kdim], brow)
		}
	}
}

// gemmTBRows computes destination rows [i0, i1) of dst = a·bᵀ, outer-loop
// over a's rows so that b (the smaller operand in this orientation) is
// re-streamed from cache.
//
//xbar:hotpath
func (f *fastBackend) gemmTBRows(dst, a, b *Matrix, i0, i1 int) {
	kdim := a.cols
	n := b.rows
	for i := i0; i < i1; i++ {
		arow := a.data[i*kdim : (i+1)*kdim]
		drow := dst.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			drow[j] = f.dot(arow, b.data[j*kdim:(j+1)*kdim])
		}
	}
}

// matVecRows computes dst[i0:i1] of dst = m·x, one multi-accumulator dot
// per row.
//
//xbar:hotpath
func (f *fastBackend) matVecRows(dst []float64, m *Matrix, x []float64, i0, i1 int) {
	for i := i0; i < i1; i++ {
		dst[i] = f.dot(m.data[i*m.cols:(i+1)*m.cols], x)
	}
}

// dot4c is the pure-Go multi-accumulator dot product: four strided chains
// (k ≡ 0..3 mod 4) combined as (s0+s1)+(s2+s3), with a single-chain tail.
// The k-3..k indexing keeps every access provably in bounds after the
// y = y[:len(x)] hint, so the inner loop carries no bounds checks.
//
//xbar:hotpath
func dot4c(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	k := 3
	for ; k < len(x); k += 4 {
		s0 += x[k-3] * y[k-3]
		s1 += x[k-2] * y[k-2]
		s2 += x[k-1] * y[k-1]
		s3 += x[k] * y[k]
	}
	for k -= 3; k < len(x); k++ {
		s0 += x[k] * y[k]
	}
	return (s0 + s1) + (s2 + s3)
}
