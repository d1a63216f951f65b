package tensor

import (
	"fmt"
	"math"
	"sort"
)

// Vector helpers. Vectors are plain []float64 so they interoperate with the
// rest of the standard library; these functions supply the operations the
// attack and training code needs.

// Dot returns the inner product of a and b.
// It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AddVec returns a + b as a new slice.
// It panics if the lengths differ.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: AddVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v + b[i]
	}
	return out
}

// SubVec returns a - b as a new slice.
// It panics if the lengths differ.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: SubVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v - b[i]
	}
	return out
}

// ScaleVec returns alpha*a as a new slice.
func ScaleVec(alpha float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = alpha * v
	}
	return out
}

// AxpyInPlace computes y += alpha*x in place.
// It panics if the lengths differ.
func AxpyInPlace(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// CloneVec returns a copy of a.
func CloneVec(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Norm2 returns sqrt(Σ a_i²).
func Norm2(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormInf returns max|a_i|, or 0 for an empty slice.
func NormInf(a []float64) float64 {
	var best float64
	for _, v := range a {
		if x := math.Abs(v); x > best {
			best = x
		}
	}
	return best
}

// ArgMax returns the index of the largest element, breaking ties in favor
// of the lowest index. It returns -1 for an empty slice.
func ArgMax(a []float64) int {
	if len(a) == 0 {
		return -1
	}
	best, bi := a[0], 0
	for i := 1; i < len(a); i++ {
		if a[i] > best {
			best, bi = a[i], i
		}
	}
	return bi
}

// TopK returns the indices of the k largest elements in descending order of
// value. If k exceeds len(a), all indices are returned. Ties are broken by
// lower index first.
func TopK(a []float64, k int) []int {
	if k > len(a) {
		k = len(a)
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(a))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return a[idx[x]] > a[idx[y]] })
	return idx[:k]
}

// Basis returns the length-n standard basis vector scaled by beta with a 1
// (scaled) in position j: beta*e_j. It panics if j is out of range.
func Basis(n, j int, beta float64) []float64 {
	if j < 0 || j >= n {
		panic(fmt.Sprintf("tensor: basis index %d out of range for length %d", j, n))
	}
	out := make([]float64, n)
	out[j] = beta
	return out
}

// AbsVec returns |a| element-wise as a new slice.
func AbsVec(a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = math.Abs(v)
	}
	return out
}

// AllFinite reports whether a holds no NaN or ±Inf.
func AllFinite(a []float64) bool {
	for _, v := range a {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}
