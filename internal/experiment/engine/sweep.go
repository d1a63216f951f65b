package engine

import "fmt"

// Axis is one named dimension of an experiment grid, carried as
// metadata in listings and results so a grid's shape is inspectable
// without running it.
type Axis struct {
	// Name labels the dimension, e.g. "config" or "strength".
	Name string `json:"name"`
	// Values are the axis points in enumeration order.
	Values []string `json:"values"`
}

// FloatAxis renders a float sweep as an Axis.
func FloatAxis(name string, values []float64) Axis {
	out := Axis{Name: name, Values: make([]string, len(values))}
	for i, v := range values {
		out.Values[i] = fmt.Sprintf("%g", v)
	}
	return out
}

// IntAxis renders an int sweep as an Axis.
func IntAxis(name string, values []int) Axis {
	out := Axis{Name: name, Values: make([]string, len(values))}
	for i, v := range values {
		out.Values[i] = fmt.Sprintf("%d", v)
	}
	return out
}

// SweepFloats returns {lo, lo+step, ..., <= hi} generated by integer
// stepping: value i is lo + i*step, never an accumulated sum, so the
// grid has no float-accumulation drift and the same (lo, hi, step)
// always yields the same cells. The count tolerates hi being a
// hair under an exact multiple (a relative 1e-9 slack), which replaces
// the old runners' "e += step with a 1e-9 fudge" loops.
func SweepFloats(lo, hi, step float64) []float64 {
	if step <= 0 || hi < lo {
		return nil
	}
	n := int(((hi - lo) / step) * (1 + 1e-9))
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		out = append(out, lo+float64(i)*step)
	}
	return out
}

// CrossProduct enumerates the cross product of axis sizes in row-major
// order (last axis fastest): the canonical cell order for regular
// grids. Each returned coordinate vector is freshly allocated.
func CrossProduct(sizes ...int) [][]int {
	total := 1
	for _, s := range sizes {
		if s <= 0 {
			return nil
		}
		total *= s
	}
	out := make([][]int, total)
	for k := 0; k < total; k++ {
		coord := make([]int, len(sizes))
		rem := k
		for d := len(sizes) - 1; d >= 0; d-- {
			coord[d] = rem % sizes[d]
			rem /= sizes[d]
		}
		out[k] = coord
	}
	return out
}
