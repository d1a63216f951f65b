package crossbar

import (
	"fmt"

	"xbarsec/internal/tensor"
)

// Batched evaluation. One programmed array is driven with a whole batch
// of input vectors at once. For noise-free arrays the IR-drop-adjusted
// effective conductances are materialized once per array and cached (the
// scalar entry points read the same cache) and inputs are validated up
// front. Every batched method's results — including the consumption
// order of a noisy array's per-read noise stream — are bit-identical to
// calling the scalar counterpart once per input, in batch order.
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

// columnWalk is the basis-query fast path of the noise-free reads: the
// side-channel probe drives one input at a time (Section III's
// measurement procedure), and with at most one nonzero u_j the general
// sweep degenerates to a walk down column j. The walk adds the sweep's
// terms in the sweep's order: each output row's term to a fresh +0
// accumulator (so a −0 product reads +0, as there), the total's terms in
// row order, then the masking row's. Results are therefore bit-identical,
// without scanning all M·N devices against the zero-skip branch. out
// receives the output currents when non-nil (length Rows()). ok is false,
// with nothing written, when u has a second nonzero: the scan stops
// there, so a dense input pays only up to its second nonzero. The
// effective-conductance cache must be built.
//
//xbar:hotpath
func (x *Crossbar) columnWalk(u, out []float64) (total float64, ok bool) {
	// Two scans, for the first nonzero and then for a second. A single
	// loop with a state variable computes the same, but read the
	// attack-jobs light op (784 one-row basis reads per extraction) 5–8%
	// slower in alternating xbarbench runs, a gap that may come from
	// where the loop lands in the binary rather than from the loop.
	nz := 0
	for nz < len(u) && u[nz] == 0 {
		nz++
	}
	if nz == len(u) {
		clear(out)
		return 0, true
	}
	for _, uj := range u[nz+1:] {
		if uj != 0 {
			return 0, false
		}
	}
	uj, vdd := u[nz], x.cfg.Vdd
	for i := range out {
		var s float64
		s += float64(x.effDiff.Row(i)[nz] * uj * vdd)
		out[i] = s
	}
	for i := 0; i < x.rows; i++ {
		total += float64(x.effSum.Row(i)[nz] * uj * vdd)
	}
	if x.effMask != nil {
		total += float64(x.effMask[nz] * uj * vdd)
	}
	return total, true
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
// noise-free array the two matrices are walked in fused passes with a
// single backing allocation for the whole batch, which is what makes
// fused power-measuring serving cheaper than per-call Forward-then-Power
// reads. An input with at most one nonzero (a basis query) skips the
// sweep for the column walk TotalCurrent also takes (columnWalk); the
// other inputs are read eight at a time, in batch order, by
// tensor.FusedSweep, a last two to seven likewise, and a last one by
// sweep. Each accumulator keeps the exact operation order of its scalar
// counterpart, so results are bit-identical to calling OutputCurrents
// then TotalCurrent once per input; for a noisy array that sequential
// pair IS the implementation (two reads per input, in that order),
// preserving the noise-stream consumption order of the scalar query
// path.
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
	slab := make([]float64, len(us)*x.rows)
	var group [tensor.FusedSweepLanes]int // batch indices of the inputs awaiting FusedSweep
	g := 0
	for b, u := range us {
		out := slab[b*x.rows : (b+1)*x.rows : (b+1)*x.rows]
		outs[b] = out
		total, ok := x.columnWalk(u, out)
		if ok {
			totals[b] = total
			continue
		}
		group[g] = b
		if g++; g == len(group) {
			x.sweepGroup(us, outs, totals, group[:])
			g = 0
		}
	}
	// A last lone input takes sweep: in AVX lanes FusedSweep makes a full
	// pass for it, about 30% slower than sweep at the serving shape,
	// while two or more inputs share that pass for less than the cost of
	// two sweeps (BenchmarkCrossbarPowerFusedRemainder).
	switch g {
	case 0:
	case 1:
		b := group[0]
		totals[b] = x.sweep(us[b], outs[b])
	default:
		x.sweepGroup(us, outs, totals, group[:g])
	}
	return outs, totals, nil
}

// sweepGroup reads the noise-free inputs us[b] for b in group (one to
// eight) with tensor.FusedSweep, writing outs[b] and totals[b].
//
//xbar:hotpath
func (x *Crossbar) sweepGroup(us, outs [][]float64, totals []float64, group []int) {
	var in, out [tensor.FusedSweepLanes][]float64
	var tot [tensor.FusedSweepLanes]float64
	for k, b := range group {
		in[k], out[k] = us[b], outs[b]
	}
	k := len(group)
	tensor.FusedSweep(out[:k], tot[:k], in[:k], x.effDiff, x.effSum, x.effMask, x.cfg.Vdd)
	for k, b := range group {
		totals[b] = tot[k]
	}
}

// sweep is the fused kernel's general pass for one noise-free input:
// both matrices walked once, the output currents written to out and the
// supply current returned, each accumulator in the operation order of
// its scalar counterpart (OutputCurrents, TotalCurrent).
//
//xbar:hotpath
func (x *Crossbar) sweep(u, out []float64) float64 {
	vdd := x.cfg.Vdd
	var total float64
	for i := 0; i < x.rows; i++ {
		dRow := x.effDiff.Row(i)[:len(u)]
		sRow := x.effSum.Row(i)[:len(u)]
		var s float64
		for j, uj := range u {
			if uj == 0 {
				continue
			}
			s += float64(dRow[j] * uj * vdd)
			total += float64(sRow[j] * uj * vdd)
		}
		out[i] = s
	}
	if x.effMask != nil {
		mask := x.effMask[:len(u)]
		for j, uj := range u {
			if uj == 0 {
				continue
			}
			total += float64(mask[j] * uj * vdd)
		}
	}
	return total
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
