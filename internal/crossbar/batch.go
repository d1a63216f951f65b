package crossbar

import (
	"fmt"

	"xbarsec/internal/tensor"
)

// Batched evaluation. One programmed array is driven with a whole batch
// of input vectors at once. For noise-free arrays the IR-drop-adjusted
// effective conductances are materialized once per array and cached (the
// scalar entry points read the same cache) and inputs are validated up
// front. Every batched method processes inputs strictly in order through the
// scalar kernels, so results — including the consumption order of a
// noisy array's per-read noise stream — are bit-identical to calling the
// scalar counterpart once per input.
//
// Batched calls on a noise-free array are safe for concurrent use; read
// noise makes an array stateful, as with the scalar methods.

// validateBatch checks every input's length up front so a bad batch fails
// before any read-noise draw is consumed.
func validateBatch(us [][]float64, want int) error {
	for b, u := range us {
		if len(u) != want {
			return fmt.Errorf("crossbar: batch input %d length %d, want %d", b, len(u), want)
		}
	}
	return nil
}

// effective materializes (and caches) the IR-drop-adjusted conductance
// difference and sum per device, plus the effective masking row. Only
// valid for noise-free arrays.
func (x *Crossbar) effective() {
	x.effOnce.Do(func() {
		diff := x.gplus.Clone()
		sum := x.gplus.Clone()
		for i := 0; i < x.rows; i++ {
			gpRow := x.gplus.Row(i)
			gmRow := x.gminus.Row(i)
			dRow := diff.Row(i)
			sRow := sum.Row(i)
			for j := range gpRow {
				gp := x.readConductance(gpRow[j], i, j)
				gm := x.readConductance(gmRow[j], i, j)
				dRow[j] = gp - gm
				sRow[j] = gp + gm
			}
		}
		x.effDiff, x.effSum = diff, sum
		if x.mask != nil {
			x.effMask = make([]float64, x.cols)
			for j, g := range x.mask {
				x.effMask[j] = x.readConductance(g, x.rows, j)
			}
		}
	})
}

// OutputCurrentsBatch returns one differential output-current vector per
// input, Eq. (3) applied across the batch.
func (x *Crossbar) OutputCurrentsBatch(us [][]float64) ([][]float64, error) {
	if err := validateBatch(us, x.cols); err != nil {
		return nil, err
	}
	out := make([][]float64, len(us))
	for b, u := range us {
		is, err := x.OutputCurrents(u)
		if err != nil {
			return nil, err
		}
		out[b] = is
	}
	return out, nil
}

// OutputBatch returns the normalized pre-activations s ≈ Wu per input —
// the batched Output.
func (x *Crossbar) OutputBatch(us [][]float64) ([][]float64, error) {
	out, err := x.OutputCurrentsBatch(us)
	if err != nil {
		return nil, err
	}
	inv := 1 / (x.scale * x.cfg.Vdd)
	for _, is := range out {
		for i := range is {
			is[i] *= inv
		}
	}
	return out, nil
}

// TotalCurrentBatch returns the supply current per input — the batched
// TotalCurrent, i.e. what a power-measuring attacker observes for each
// vector of the batch.
func (x *Crossbar) TotalCurrentBatch(us [][]float64) ([]float64, error) {
	if err := validateBatch(us, x.cols); err != nil {
		return nil, err
	}
	out := make([]float64, len(us))
	for b, u := range us {
		i, err := x.TotalCurrent(u)
		if err != nil {
			return nil, err
		}
		out[b] = i
	}
	return out, nil
}

// PowerBatch returns the static read power per input.
func (x *Crossbar) PowerBatch(us [][]float64) ([]float64, error) {
	out, err := x.TotalCurrentBatch(us)
	if err != nil {
		return nil, err
	}
	for b := range out {
		out[b] *= x.cfg.Vdd
	}
	return out, nil
}

// Noisy reports whether the array draws per-read noise, making it
// stateful: every read consumes the noise stream, so concurrent callers
// must serialize access (the service layer's read guard does) and results
// depend on read order.
func (x *Crossbar) Noisy() bool { return x.reads != nil }

// Noisy reports whether the network's array draws per-read noise; see
// Crossbar.Noisy.
func (n *Network) Noisy() bool { return n.xbar.Noisy() }

// OutputTotalCurrentBatch returns, per input, both the differential
// output currents (Eq. 3) and the total supply current (Eq. 5) — the two
// observables a power-measuring attacker gets from one inference. For a
// noise-free array the two matrices are walked in one fused pass per
// input with a single backing allocation for the whole batch, which is
// what makes fused power-measuring serving cheaper than per-call
// Forward-then-Power reads. Each accumulator keeps the exact operation
// order of its scalar counterpart, so results are bit-identical to
// calling OutputCurrents then TotalCurrent once per input; for a noisy
// array that sequential pair IS the implementation (two reads per input,
// in that order), preserving the noise-stream consumption order of the
// scalar query path.
//
//xbar:hotpath
func (x *Crossbar) OutputTotalCurrentBatch(us [][]float64) ([][]float64, []float64, error) {
	if err := validateBatch(us, x.cols); err != nil {
		return nil, nil, err
	}
	totals := make([]float64, len(us))
	outs := make([][]float64, len(us))
	if x.reads != nil {
		for b, u := range us {
			is, err := x.OutputCurrents(u)
			if err != nil {
				return nil, nil, err
			}
			tot, err := x.TotalCurrent(u)
			if err != nil {
				return nil, nil, err
			}
			outs[b], totals[b] = is, tot
		}
		return outs, totals, nil
	}
	x.effective()
	vdd := x.cfg.Vdd
	slab := make([]float64, len(us)*x.rows)
	for b, u := range us {
		out := slab[b*x.rows : (b+1)*x.rows : (b+1)*x.rows]
		var total float64
		for i := 0; i < x.rows; i++ {
			dRow := x.effDiff.Row(i)
			sRow := x.effSum.Row(i)
			var s float64
			for j, uj := range u {
				if uj == 0 {
					continue
				}
				s += dRow[j] * uj * vdd
				total += sRow[j] * uj * vdd
			}
			out[i] = s
		}
		if x.effMask != nil {
			for j, uj := range u {
				if uj == 0 {
					continue
				}
				total += x.effMask[j] * uj * vdd
			}
		}
		outs[b], totals[b] = out, total
	}
	return outs, totals, nil
}

// ForwardPowerBatch returns ŷ = f(s) and the read power per input in one
// fused pass — the serving-path combination of ForwardBatch and
// PowerBatch, bit-identical to calling Forward then Power once per input
// in that order.
func (n *Network) ForwardPowerBatch(us [][]float64) ([][]float64, []float64, error) {
	ss, totals, err := n.xbar.OutputTotalCurrentBatch(us)
	if err != nil {
		return nil, nil, err
	}
	inv := 1 / (n.xbar.scale * n.xbar.cfg.Vdd)
	for b := range ss {
		for i := range ss[b] {
			ss[b][i] *= inv
		}
		ss[b] = applyActivation(n.act, ss[b])
	}
	for b := range totals {
		totals[b] *= n.xbar.cfg.Vdd
	}
	return ss, totals, nil
}

// ForwardBatch returns ŷ = f(s) per input — the batched Network.Forward.
func (n *Network) ForwardBatch(us [][]float64) ([][]float64, error) {
	ss, err := n.xbar.OutputBatch(us)
	if err != nil {
		return nil, err
	}
	for b := range ss {
		ss[b] = applyActivation(n.act, ss[b])
	}
	return ss, nil
}

// PredictBatch returns the argmax class label per input.
func (n *Network) PredictBatch(us [][]float64) ([]int, error) {
	ys, err := n.ForwardBatch(us)
	if err != nil {
		return nil, err
	}
	labels := make([]int, len(ys))
	for b, y := range ys {
		labels[b] = tensor.ArgMax(y)
	}
	return labels, nil
}

// PowerBatch returns the read power per input.
func (n *Network) PowerBatch(us [][]float64) ([]float64, error) {
	return n.xbar.PowerBatch(us)
}
