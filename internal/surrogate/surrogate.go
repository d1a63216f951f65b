// Package surrogate implements the paper's Section IV black-box attack:
// a surrogate single-layer network is trained on oracle query data with
// the joint loss of Eq. (9),
//
//	L = L_out + λ·L_power,
//
// where L_out is the MSE between surrogate and oracle outputs (or one-hot
// oracle labels in label-only mode) and L_power is the MSE between the
// oracle's measured power and the surrogate's differentiable power
// prediction p̂(u) = Σ_j u_j Σ_i |ŵ_ij|. Under the paper's normalized-
// crossbar convention (§II-B) the measured power equals exactly this
// feature evaluated on the oracle's weights, so no calibration parameter
// is needed and the column-1-norm structure of Eq. (5)/(6) transfers
// directly into the surrogate's weight magnitudes.
//
// The package also provides the algebraic extraction baseline the paper
// notes in Section IV: with Q >= N raw-output queries, W = (U†Ŷ)ᵀ exactly
// and power information is useless.
package surrogate

import (
	"errors"
	"fmt"
	"math"

	"xbarsec/internal/linalg"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// Config controls surrogate training.
type Config struct {
	// Lambda is the power loss weight λ of Eq. (9); 0 disables the power
	// term (the paper sweeps {0, 0.002, ..., 0.01}).
	Lambda float64
	// Epochs is the number of passes over the query set.
	Epochs int
	// BatchSize is the mini-batch size; <= 0 defaults to 32.
	BatchSize int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the classical momentum coefficient in [0, 1).
	Momentum float64
}

// DefaultConfig returns the training settings used by the experiments.
func DefaultConfig() Config {
	return Config{Lambda: 0, Epochs: 40, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9}
}

// Model is a trained surrogate. Net is a linear+MSE network (the paper
// uses only linear surrogates).
type Model struct {
	// Net is the surrogate network; it implements attack.GradientSource.
	Net *nn.Network
}

// Train fits a surrogate to the query set. The power term is active only
// when cfg.Lambda > 0 and qs.P is present.
func Train(qs *oracle.QuerySet, cfg Config, src *rng.Source) (*Model, error) {
	if qs == nil || qs.Len() == 0 {
		return nil, errors.New("surrogate: empty query set")
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("surrogate: epochs %d must be positive", cfg.Epochs)
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("surrogate: learning rate %v must be positive", cfg.LearningRate)
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, fmt.Errorf("surrogate: momentum %v out of [0,1)", cfg.Momentum)
	}
	if cfg.Lambda < 0 {
		return nil, fmt.Errorf("surrogate: negative power weight %v", cfg.Lambda)
	}
	usePower := cfg.Lambda > 0 && qs.P != nil
	if cfg.Lambda > 0 && qs.P == nil {
		return nil, errors.New("surrogate: lambda > 0 but query set has no power data")
	}

	q, n, m := qs.Len(), qs.U.Cols(), qs.Y.Cols()
	net, err := nn.NewNetwork(m, n, nn.ActLinear, nn.LossMSE)
	if err != nil {
		return nil, err
	}
	net.InitXavier(src.Split("init"))

	// The power targets are expected in the paper's normalized
	// (weight-unit) convention — oracle.Collect delivers them that way —
	// so the surrogate's feature Σ_j u_j ‖Ŵ_:,j‖₁ is directly comparable
	// and Eq. (9) needs no calibration parameter.

	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	sgd := src.Split("sgd")
	velocity := tensor.New(m, n)
	grad := tensor.New(m, n)
	ws := newTrainWorkspace(batch, q, n, m, usePower)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := sgd.Perm(q)
		for start := 0; start < q; start += batch {
			end := start + batch
			if end > q {
				end = q
			}
			ws.step(net, qs, cfg, perm[start:end], ws.views(end-start), grad, usePower)
			scale := 1 / float64(end-start)
			tensor.SGDMomentumStep(net.W, velocity, grad, cfg.Momentum, -cfg.LearningRate*scale, false, 0)
		}
	}
	return &Model{Net: net}, nil
}

// trainViews is one set of mini-batch workspaces: gathered query inputs u
// and oracle outputs y, the forward pass s (each sample's outputs, then
// its power prediction p̂(u)), and output-MSE deltas d.
type trainViews struct {
	rows       int
	u, y, s, d *tensor.Matrix
}

// trainWorkspace owns the reusable surrogate-training buffers. As in nn,
// an epoch sees at most two mini-batch sizes, so both view sets alias one
// allocation and the steady-state step allocates nothing. bt holds the
// forward operand [Wᵀ | ‖W_:,j‖₁]; the power-term buffers (per-sample
// power coefficients and the sign matrix of W) are only present when
// the power loss is active.
type trainWorkspace struct {
	full, rem trainViews
	bt        *tensor.Matrix // [Wᵀ | ‖W_:,j‖₁], rewritten per mini-batch
	coeffs    []float64      // 2λ(p̂(u_b) - p_b) per mini-batch sample
	sgn       *tensor.Matrix // sign(w_ij), rewritten per mini-batch
}

func newTrainWorkspace(batch, total, n, m int, usePower bool) *trainWorkspace {
	if batch > total {
		batch = total
	}
	full := trainViews{
		rows: batch,
		u:    tensor.New(batch, n),
		y:    tensor.New(batch, m),
		s:    tensor.New(batch, m+1),
		d:    tensor.New(batch, m),
	}
	ws := &trainWorkspace{full: full, bt: tensor.New(n, m+1)}
	if rem := total % batch; rem != 0 {
		ws.rem = trainViews{
			rows: rem,
			u:    full.u.RowSpan(0, rem),
			y:    full.y.RowSpan(0, rem),
			s:    full.s.RowSpan(0, rem),
			d:    full.d.RowSpan(0, rem),
		}
	}
	if usePower {
		ws.coeffs = make([]float64, batch)
		ws.sgn = tensor.New(m, n)
	}
	return ws
}

func (w *trainWorkspace) views(rows int) *trainViews {
	if rows == w.full.rows {
		return &w.full
	}
	if rows == w.rem.rows {
		return &w.rem
	}
	panic(fmt.Sprintf("surrogate: no workspace for batch of %d rows", rows))
}

// step computes the summed mini-batch gradient of Eq. (9) into grad
// (overwritten). One forward product against [Wᵀ | ‖W_:,j‖₁] yields, for
// every sample, its outputs on MatVec's chain and its power prediction
// p̂(u) = Σ_j u_j‖W_:,j‖₁ on tensor.Dot's. Without the power term the
// gradient is a single batch contraction (GemmTA). With it, each sample
// adds two terms to every gradient element, its output-MSE term
// d_bi·u_bj and then its power term s_ij·(c_b·u_bj), and
// tensor.PowerGrad adds them in that order, sample after sample, on one
// accumulator chain per element. So the result is bit-identical to the
// per-sample reference loop (pinned by TestTrainMatchesPerSampleReference
// in this package); for λ > 0 under either tensor backend, since both
// exact kernels sit outside it.
//
//xbar:hotpath
func (w *trainWorkspace) step(net *nn.Network, qs *oracle.QuerySet, cfg Config, idxs []int, v *trainViews, grad *tensor.Matrix, usePower bool) {
	m := net.Outputs()
	for bi, idx := range idxs {
		v.u.CopyRow(bi, qs.U, idx)
		v.y.CopyRow(bi, qs.Y, idx)
	}
	w.packWeights(net.W)
	tensor.GemmNarrow(v.s, v.u, w.bt)
	fm := float64(m)
	for bi := range idxs {
		s, y, d := v.s.Row(bi), v.y.Row(bi), v.d.Row(bi)
		s, y = s[:len(d)], y[:len(d)]
		// Output MSE term: δ = 2(Wu - y)/M.
		for i := range d {
			d[i] = 2 * (s[i] - y[i]) / fm
		}
	}
	if !usePower {
		tensor.GemmTA(grad, v.d, v.u)
		return
	}
	// Power term: e = p̂(u) - p; ∂p̂/∂w_ij = u_j·sign(w_ij). Neither W nor
	// its column norms change within the step, so every sample's
	// coefficient 2λe is known before grad is touched.
	coeffs := w.coeffs[:len(idxs)]
	for bi, idx := range idxs {
		coeffs[bi] = cfg.Lambda * 2 * (v.s.At(bi, m) - qs.P[idx])
	}
	tensor.PowerGrad(grad, v.d, v.u, w.sgn, coeffs)
}

// packWeights is the step's one pass over W. It writes bt = [Wᵀ |
// ‖W_:,j‖₁], each norm summed over i in increasing order from +0 as
// Matrix.ColAbsSums sums it, and, under the power loss, sgn = sign(W):
// 1, -1, or 0 for ±0, from two comparisons rather than a branch on the
// weight.
//
//xbar:hotpath
func (w *trainWorkspace) packWeights(W *tensor.Matrix) {
	m, n := W.Rows(), W.Cols()
	wd, bt := W.Data(), w.bt.Data()
	var sgn []float64
	if w.sgn != nil {
		sgn = w.sgn.Data()
	}
	for j := 0; j < n; j++ {
		col := bt[j*(m+1) : (j+1)*(m+1)]
		var norm float64
		for i := range m {
			x := wd[i*n+j]
			col[i] = x
			norm += math.Abs(x)
			if sgn != nil {
				sgn[i*n+j] = float64(b2i(x > 0) - b2i(x < 0))
			}
		}
		col[m] = norm
	}
}

// b2i is 1 for true and 0 for false; the compiler sets it from the
// comparison's flags, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// AlgebraicExtract recovers the oracle's weights from raw-output queries
// by least squares: W = (U†Ŷ)ᵀ. With Q >= N independent queries on a
// noiseless linear oracle the recovery is exact (paper §IV); with fewer
// queries it returns the minimum-norm solution.
func AlgebraicExtract(qs *oracle.QuerySet) (*nn.Network, error) {
	if qs == nil || qs.Len() == 0 {
		return nil, errors.New("surrogate: empty query set")
	}
	uinv, err := linalg.PseudoInverse(qs.U)
	if err != nil {
		return nil, fmt.Errorf("surrogate: pseudoinverse: %w", err)
	}
	west := uinv.MatMul(qs.Y).T()
	net, err := nn.NewNetwork(west.Rows(), west.Cols(), nn.ActLinear, nn.LossMSE)
	if err != nil {
		return nil, err
	}
	net.W = west
	return net, nil
}

// Accuracy evaluates the surrogate's top-1 accuracy against true labels
// through the batched forward path (bit-identical to per-sample Predict).
func (m *Model) Accuracy(x *tensor.Matrix, labels []int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	preds, err := m.Net.PredictBatch(x)
	if err != nil {
		// Shape mismatch between surrogate and evaluation set — mirror the
		// per-sample path, which would have panicked inside MatVec.
		panic(err)
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows())
}
