package nn

import (
	"fmt"

	"xbarsec/internal/tensor"
)

// Batched inference paths. The attack sweeps evaluate thousands of
// perturbed inputs per point; doing it as one matrix product instead of a
// MatVec per sample keeps the Figure 4/5 harnesses fast.

// ForwardBatch returns f(X Wᵀ): one output row per input row of x. The
// product runs through GemmTB — no transposed copy of W is materialized —
// and is bit-identical to per-sample Forward calls.
func (n *Network) ForwardBatch(x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols() != n.Inputs() {
		return nil, fmt.Errorf("nn: batch width %d, want %d", x.Cols(), n.Inputs())
	}
	s := tensor.New(x.Rows(), n.Outputs())
	tensor.GemmTB(s, x, n.W)
	for i := 0; i < s.Rows(); i++ {
		applyActivation(n.Act, s.Row(i))
	}
	return s, nil
}

// PredictBatch returns the argmax class per input row of x.
func (n *Network) PredictBatch(x *tensor.Matrix) ([]int, error) {
	y, err := n.ForwardBatch(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, y.Rows())
	for i := range out {
		out[i] = tensor.ArgMax(y.Row(i))
	}
	return out, nil
}

// gradChunk bounds the pre-activation/delta workspace of the batched
// gradient paths: gradients stream through chunks of this many samples so
// arbitrarily large evaluation sets need only O(chunk · outputs) scratch.
const gradChunk = 256

// InputGradientBatch returns one ∂L/∂u row per (input, target) row pair —
// the attack gradient path (Eq. 7) as two matrix-matrix products per
// chunk, bit-identical to per-sample InputGradient calls.
func (n *Network) InputGradientBatch(x, targets *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols() != n.Inputs() {
		return nil, fmt.Errorf("nn: batch width %d, want %d", x.Cols(), n.Inputs())
	}
	if targets.Rows() != x.Rows() || targets.Cols() != n.Outputs() {
		return nil, fmt.Errorf("nn: target shape %dx%d, want %dx%d", targets.Rows(), targets.Cols(), x.Rows(), n.Outputs())
	}
	out := tensor.New(x.Rows(), n.Inputs())
	rows := x.Rows()
	chunk := gradChunk
	if chunk > rows {
		chunk = rows
	}
	s := tensor.New(chunk, n.Outputs())
	d := tensor.New(chunk, n.Outputs())
	for c0 := 0; c0 < rows; c0 += chunk {
		c1 := c0 + chunk
		if c1 > rows {
			c1 = rows
		}
		sv, dv := s.RowSpan(0, c1-c0), d.RowSpan(0, c1-c0)
		tensor.GemmTB(sv, x.RowSpan(c0, c1), n.W)
		for bi := 0; bi < c1-c0; bi++ {
			outputDeltaInto(n.Act, n.Crit, sv.Row(bi), targets.Row(c0+bi), dv.Row(bi))
		}
		// ∂L/∂u = δ W, one row per sample (Eq. 7).
		tensor.Gemm(out.RowSpan(c0, c1), dv, n.W)
	}
	return out, nil
}
