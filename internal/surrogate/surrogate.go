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
// and oracle outputs y, pre-activations s, and output-MSE deltas d.
type trainViews struct {
	rows       int
	u, y, s, d *tensor.Matrix
}

// trainWorkspace owns the reusable surrogate-training buffers. As in nn,
// an epoch sees at most two mini-batch sizes, so both view sets alias one
// allocation and the steady-state step allocates nothing. The power-term
// buffers (current column 1-norms, per-sample power coefficients, and the
// sign matrix of W) are only present when the power loss is active.
type trainWorkspace struct {
	full, rem trainViews
	colNorms  []float64      // ‖W_:,j‖₁, refreshed per mini-batch
	coeffs    []float64      // 2λ(p̂(u_b) - p_b) per mini-batch sample
	sgn       *tensor.Matrix // sign(w_ij), refreshed per mini-batch
}

func newTrainWorkspace(batch, total, n, m int, usePower bool) *trainWorkspace {
	if batch > total {
		batch = total
	}
	full := trainViews{
		rows: batch,
		u:    tensor.New(batch, n),
		y:    tensor.New(batch, m),
		s:    tensor.New(batch, m),
		d:    tensor.New(batch, m),
	}
	ws := &trainWorkspace{full: full}
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
		ws.colNorms = make([]float64, n)
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
// (overwritten). The forward pass runs as one matrix-matrix product for
// the whole mini-batch. Without the power term the gradient is a single
// batch contraction (GemmTA). With it, each sample adds two terms to
// every gradient element, its output-MSE term d_bi·u_bj and then its
// power term s_ij·(c_b·u_bj), and powerGrad adds them in that order,
// sample after sample, on one accumulator chain per element, so the
// result is bit-identical to the per-sample reference loop (pinned by
// TestTrainMatchesPerSampleReference in this package).
//
//xbar:hotpath
func (w *trainWorkspace) step(net *nn.Network, qs *oracle.QuerySet, cfg Config, idxs []int, v *trainViews, grad *tensor.Matrix, usePower bool) {
	m := net.Outputs()
	for bi, idx := range idxs {
		v.u.CopyRow(bi, qs.U, idx)
		v.y.CopyRow(bi, qs.Y, idx)
	}
	tensor.GemmTB(v.s, v.u, net.W)
	fm := float64(m)
	for bi := range idxs {
		s, y, d := v.s.Row(bi), v.y.Row(bi), v.d.Row(bi)
		// Output MSE term: δ = 2(Wu - y)/M.
		for i := range s {
			d[i] = 2 * (s[i] - y[i]) / fm
		}
	}
	if !usePower {
		tensor.GemmTA(grad, v.d, v.u)
		return
	}
	net.W.ColAbsSumsInto(w.colNorms)
	sgnData, wData := w.sgn.Data(), net.W.Data()
	for k, wk := range wData {
		switch {
		case wk > 0:
			sgnData[k] = 1
		case wk < 0:
			sgnData[k] = -1
		default:
			sgnData[k] = 0
		}
	}
	// Power term: e = p̂(u) - p, p̂(u) = Σ_j u_j ‖W_:,j‖₁;
	// ∂p̂/∂w_ij = u_j·sign(w_ij). Neither W nor the column norms change
	// within the step, so every sample's coefficient 2λe is known before
	// grad is touched.
	coeffs := w.coeffs[:len(idxs)]
	for bi, idx := range idxs {
		coeffs[bi] = cfg.Lambda * 2 * (tensor.Dot(v.u.Row(bi), w.colNorms) - qs.P[idx])
	}
	powerGrad(grad, v.d, v.u, w.sgn, coeffs)
}

// powerGrad computes grad = Σ_b (d_b ⊗ u_b + sgn ∘ (c_b·u_b)),
// overwriting grad. Each element (i, j) adds, for each sample b in
// increasing order, d_bi·u_bj and then sgn_ij·(c_b·u_bj), on one chain.
// One pass over a gradient row adds four samples, as the GemmTA kernel
// groups them, so the row is loaded and stored once per four samples
// instead of twice per sample; the row and its signs stay in L1 while
// the samples stream past. A zero d_bi is not skipped: every input is
// finite, so its term is ±0, and adding ±0 to a chain that began at +0
// is bitwise neutral (see tensor/gemm.go).
//
//xbar:hotpath
func powerGrad(grad, d, u, sgn *tensor.Matrix, coeffs []float64) {
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
