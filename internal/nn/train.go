package nn

import (
	"fmt"

	"xbarsec/internal/dataset"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// TrainConfig controls the mini-batch SGD trainer.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the mini-batch size; values <= 0 default to 32.
	BatchSize int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the classical momentum coefficient in [0, 1).
	Momentum float64
	// WeightDecay is the L2 penalty coefficient (0 disables).
	WeightDecay float64
	// ZeroInit starts W at zero instead of Xavier. For single-layer
	// (convex) problems this removes init noise from the trained weights
	// — there is no symmetry to break — giving cleaner column-norm
	// structure; it emulates fully-converged training.
	ZeroInit bool
}

// TrainResult reports the trajectory of a training run.
type TrainResult struct {
	// EpochLosses holds the mean training loss after each epoch.
	EpochLosses []float64
}

// batchViews is one set of mini-batch workspaces: gathered inputs u,
// gathered targets t, pre-activations (turned into outputs in place) s,
// and output deltas d, all with `rows` rows.
type batchViews struct {
	rows       int
	u, t, s, d *tensor.Matrix
}

// batchWorkspace owns the reusable buffers for batched forward/backprop.
// An epoch sees at most two mini-batch sizes — the full batch and the
// final remainder — so both view sets are materialized up front (the
// remainder views alias the full buffers) and the steady-state training
// step allocates nothing.
type batchWorkspace struct {
	full batchViews
	rem  batchViews
}

// newBatchWorkspace sizes workspaces for mini-batches of `batch` rows out
// of `total` samples, with nin inputs and nout outputs.
func newBatchWorkspace(batch, total, nin, nout int) *batchWorkspace {
	if batch > total {
		batch = total
	}
	full := batchViews{
		rows: batch,
		u:    tensor.New(batch, nin),
		t:    tensor.New(batch, nout),
		s:    tensor.New(batch, nout),
		d:    tensor.New(batch, nout),
	}
	ws := &batchWorkspace{full: full}
	if rem := total % batch; rem != 0 {
		ws.rem = batchViews{
			rows: rem,
			u:    full.u.RowSpan(0, rem),
			t:    full.t.RowSpan(0, rem),
			s:    full.s.RowSpan(0, rem),
			d:    full.d.RowSpan(0, rem),
		}
	}
	return ws
}

// views returns the workspace views for a mini-batch of `rows` rows.
func (w *batchWorkspace) views(rows int) *batchViews {
	if rows == w.full.rows {
		return &w.full
	}
	if rows == w.rem.rows {
		return &w.rem
	}
	panic(fmt.Sprintf("nn: no workspace for batch of %d rows", rows))
}

// batchStep runs one batched forward/backprop step over the samples
// x[idxs], writing the summed weight gradient into grad (overwritten) and
// adding each sample's loss to *epochLoss in index order. The mini-batch
// is forwarded as one matrix-matrix product and the gradient sum is
// contracted over the batch in sample-index order (see the tensor kernel
// determinism contract); per-sample losses join the epoch accumulator
// directly, never a per-batch subtotal, preserving the flat summation
// chain — so the result is bit-identical to running the per-sample loop
// over idxs in order.
func (n *Network) batchStep(x, targets *tensor.Matrix, idxs []int, v *batchViews, grad *tensor.Matrix, epochLoss *float64) {
	for bi, idx := range idxs {
		v.u.CopyRow(bi, x, idx)
		v.t.CopyRow(bi, targets, idx)
	}
	tensor.GemmTB(v.s, v.u, n.W)
	for bi := range idxs {
		*epochLoss += outputDeltaInto(n.Act, n.Crit, v.s.Row(bi), v.t.Row(bi), v.d.Row(bi))
	}
	tensor.GemmTA(grad, v.d, v.u)
}

// Train fits the network to ds with one-hot targets using mini-batch SGD.
// The shuffle order is drawn from src, so training is fully deterministic
// given (network init, dataset, seed). Mini-batches run through the
// batched GEMM kernels with reused workspaces — bit-identical to the
// per-sample reference loop (pinned by TestTrainMatchesPerSampleReference)
// and allocation-free per step.
func Train(n *Network, ds *dataset.Dataset, cfg TrainConfig, src *rng.Source) (*TrainResult, error) {
	if ds.Len() == 0 {
		return nil, dataset.ErrEmpty
	}
	if ds.Dim() != n.Inputs() {
		return nil, fmt.Errorf("nn: dataset dim %d != network inputs %d", ds.Dim(), n.Inputs())
	}
	if ds.NumClasses != n.Outputs() {
		return nil, fmt.Errorf("nn: dataset classes %d != network outputs %d", ds.NumClasses, n.Outputs())
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("nn: epochs %d must be positive", cfg.Epochs)
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("nn: learning rate %v must be positive", cfg.LearningRate)
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, fmt.Errorf("nn: momentum %v out of [0,1)", cfg.Momentum)
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	targets := ds.OneHot()
	velocity := tensor.New(n.Outputs(), n.Inputs())
	grad := tensor.New(n.Outputs(), n.Inputs())
	ws := newBatchWorkspace(batch, ds.Len(), n.Inputs(), n.Outputs())
	res := &TrainResult{EpochLosses: make([]float64, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := src.Perm(ds.Len())
		var epochLoss float64
		for start := 0; start < len(perm); start += batch {
			end := start + batch
			if end > len(perm) {
				end = len(perm)
			}
			idxs := perm[start:end]
			n.batchStep(ds.X, targets, idxs, ws.views(len(idxs)), grad, &epochLoss)
			scale := 1 / float64(end-start)
			// v ← µv − η(∇ + wd·W); W ← W + v, in one fused sweep.
			tensor.SGDMomentumStep(n.W, velocity, grad, cfg.Momentum,
				-cfg.LearningRate*scale, cfg.WeightDecay > 0, -cfg.LearningRate*cfg.WeightDecay)
		}
		res.EpochLosses = append(res.EpochLosses, epochLoss/float64(ds.Len()))
	}
	return res, nil
}

// TrainNew builds, initializes and trains a network for ds in one call.
func TrainNew(ds *dataset.Dataset, act Activation, crit Loss, cfg TrainConfig, src *rng.Source) (*Network, *TrainResult, error) {
	n, err := NewNetwork(ds.NumClasses, ds.Dim(), act, crit)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.ZeroInit {
		n.InitXavier(src.Split("init"))
	}
	res, err := Train(n, ds, cfg, src.Split("sgd"))
	if err != nil {
		return nil, nil, err
	}
	return n, res, nil
}
