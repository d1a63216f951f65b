package main

import (
	"math"
	"sort"
)

// tailGap is the number of samples the tail percentile must leave
// beyond it: the tail is the highest percentile that still has this
// many samples above it, so it is a sample's rank, not an extrapolation.
const tailGap = 10

// summary is one latency class's distribution. Failed or refused ops
// enter it as +Inf, so they count as missing every latency limit.
type summary struct {
	N       int     // samples, failures included
	P50     float64 // median
	Tail    float64 // value at rank N-tailGap (1-based); 0 when N <= tailGap
	TailPct float64 // the percentile Tail sits at, 100*(N-tailGap)/N
}

// summarize sorts a copy of xs and reads the median and the tail.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = median(s)
	if len(s) > tailGap {
		rank := len(s) - tailGap // 1-based
		out.Tail = s[rank-1]
		out.TailPct = 100 * float64(rank) / float64(len(s))
	}
	return out
}

// median of a sorted slice; the mean of the middle pair for even n.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	a, b := sorted[n/2-1], sorted[n/2]
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.Inf(1)
	}
	return (a + b) / 2
}

// medianOf returns the median of xs without reordering it.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// finite maps +Inf (a class with failures) onto the largest float so
// the result line stays valid JSON; the run is already marked incorrect.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

// ratio is a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
