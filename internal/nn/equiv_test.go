package nn

import (
	"math"
	"testing"

	"xbarsec/internal/dataset"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// This file pins the batched-GEMM trainers to the pre-refactor per-sample
// loops, which are preserved below as reference implementations. Under
// the default (bit-exact) tensor backend the contract is bit-identity:
// same final weights and same epoch losses, to the last ulp, at the same
// seed — the training-side analogue of the crossbar batch/scalar twin
// tests. Under a tolerance backend (-tensor.fast) the batched trainer's
// GemmTA/GemmTB reorder their accumulations while the frozen per-sample
// loops do not, so the pin relaxes to a tight relative tolerance — a few
// epochs of SGD on these tiny victims amplify the per-kernel ulps only
// modestly.

// referenceOutputDelta is the per-sample δ = ∂L/∂s computation exactly as
// shipped before the batched rewrite (network.go @ PR 1), kept frozen so
// the reference loops below cannot drift along with the production code.
func referenceOutputDelta(n *Network, u, target []float64) (delta, y []float64) {
	s := n.W.MatVec(u)
	switch {
	case n.Act == ActSoftmax && n.Crit == LossCrossEntropy:
		y = softmaxInPlace(tensor.CloneVec(s))
		delta = tensor.SubVec(y, target)
	case n.Act == ActLinear && n.Crit == LossMSE:
		y = tensor.CloneVec(s)
		delta = tensor.ScaleVec(2/float64(len(y)), tensor.SubVec(y, target))
	case n.Act == ActSigmoid && n.Crit == LossMSE:
		y = applyActivation(ActSigmoid, tensor.CloneVec(s))
		delta = make([]float64, len(y))
		for i := range y {
			delta[i] = 2 / float64(len(y)) * (y[i] - target[i]) * y[i] * (1 - y[i])
		}
	case n.Act == ActReLU && n.Crit == LossMSE:
		y = applyActivation(ActReLU, tensor.CloneVec(s))
		delta = make([]float64, len(y))
		for i := range y {
			if s[i] > 0 {
				delta[i] = 2 / float64(len(y)) * (y[i] - target[i])
			}
		}
	default:
		panic("unsupported pair")
	}
	return delta, y
}

// referenceTrain is the per-sample mini-batch SGD loop exactly as shipped
// before the batched rewrite (train.go @ PR 1).
func referenceTrain(n *Network, ds *dataset.Dataset, cfg TrainConfig, src *rng.Source) *TrainResult {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	targets := ds.OneHot()
	velocity := tensor.New(n.Outputs(), n.Inputs())
	grad := tensor.New(n.Outputs(), n.Inputs())
	res := &TrainResult{EpochLosses: make([]float64, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := src.Perm(ds.Len())
		var epochLoss float64
		for start := 0; start < len(perm); start += batch {
			end := start + batch
			if end > len(perm) {
				end = len(perm)
			}
			grad.Fill(0)
			for _, idx := range perm[start:end] {
				u := ds.X.Row(idx)
				t := targets.Row(idx)
				delta, y := referenceOutputDelta(n, u, t)
				epochLoss += lossValue(n.Crit, y, t)
				for i, d := range delta {
					if d == 0 {
						continue
					}
					row := grad.Row(i)
					for j, uj := range u {
						row[j] += d * uj
					}
				}
			}
			scale := 1 / float64(end-start)
			velocity.Scale(cfg.Momentum)
			velocity.AddScaled(-cfg.LearningRate*scale, grad)
			if cfg.WeightDecay > 0 {
				velocity.AddScaled(-cfg.LearningRate*cfg.WeightDecay, n.W)
			}
			n.W.AddMatrix(velocity)
		}
		res.EpochLosses = append(res.EpochLosses, epochLoss/float64(ds.Len()))
	}
	return res
}

// referenceTrainMLP is the per-sample MLP loop exactly as shipped before
// the batched rewrite (mlp.go @ PR 1), including its second forward pass
// per sample through LossValue.
func referenceTrainMLP(m *MLP, ds *dataset.Dataset, cfg TrainConfig, src *rng.Source) *TrainResult {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	targets := ds.OneHot()
	velocity := make([]*tensor.Matrix, len(m.Layers))
	sums := make([]*tensor.Matrix, len(m.Layers))
	for l, w := range m.Layers {
		velocity[l] = tensor.New(w.Rows(), w.Cols())
		sums[l] = tensor.New(w.Rows(), w.Cols())
	}
	res := &TrainResult{EpochLosses: make([]float64, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := src.Perm(ds.Len())
		var epochLoss float64
		for start := 0; start < len(perm); start += batch {
			end := start + batch
			if end > len(perm) {
				end = len(perm)
			}
			for _, s := range sums {
				s.Fill(0)
			}
			for _, idx := range perm[start:end] {
				u := ds.X.Row(idx)
				t := targets.Row(idx)
				grads, _ := m.backprop(u, t)
				epochLoss += m.LossValue(u, t)
				for l, g := range grads {
					sums[l].AddMatrix(g)
				}
			}
			scale := 1 / float64(end-start)
			for l := range m.Layers {
				velocity[l].Scale(cfg.Momentum)
				velocity[l].AddScaled(-cfg.LearningRate*scale, sums[l])
				if cfg.WeightDecay > 0 {
					velocity[l].AddScaled(-cfg.LearningRate*cfg.WeightDecay, m.Layers[l])
				}
				m.Layers[l].AddMatrix(velocity[l])
			}
		}
		res.EpochLosses = append(res.EpochLosses, epochLoss/float64(ds.Len()))
	}
	return res
}

func equivDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.GenerateMNISTLike(rng.New(41), n, dataset.DefaultMNISTLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// equivRelTol is the per-element relative tolerance the trainer pins
// relax to under a non-bit-exact tensor backend.
const equivRelTol = 1e-8

func requireEquivMatrix(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	requireEquivVec(t, name, got.Data(), want.Data())
}

func requireEquivVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	exact := tensor.Active().BitExact()
	for i := range got {
		if exact {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d: %v vs %v (bits %x vs %x)", name, i, got[i], want[i],
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			continue
		}
		if d := math.Abs(got[i] - want[i]); d > equivRelTol*math.Abs(want[i])+equivRelTol*equivRelTol {
			t.Fatalf("%s: element %d off by %g under %s backend: %v vs %v",
				name, i, d, tensor.ActiveName(), got[i], want[i])
		}
	}
}

// TestTrainMatchesPerSampleReference pins the batched trainer to the old
// per-sample loop for all four activation/loss pairings, with momentum,
// weight decay, and a dataset size that leaves a remainder mini-batch.
func TestTrainMatchesPerSampleReference(t *testing.T) {
	ds := equivDataset(t, 75) // batch 32 -> mini-batches of 32, 32, 11
	cases := []struct {
		act  Activation
		crit Loss
	}{
		{ActLinear, LossMSE},
		{ActSoftmax, LossCrossEntropy},
		{ActSigmoid, LossMSE},
		{ActReLU, LossMSE},
	}
	for _, c := range cases {
		t.Run(c.act.String(), func(t *testing.T) {
			cfg := TrainConfig{Epochs: 3, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9, WeightDecay: 0.01}
			refNet, err := NewNetwork(ds.NumClasses, ds.Dim(), c.act, c.crit)
			if err != nil {
				t.Fatal(err)
			}
			refNet.InitXavier(rng.New(7))
			gotNet := refNet.Clone()
			refRes := referenceTrain(refNet, ds, cfg, rng.New(11))
			gotRes, err := Train(gotNet, ds, cfg, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			requireEquivMatrix(t, "weights", gotNet.W, refNet.W)
			requireEquivVec(t, "epoch losses", gotRes.EpochLosses, refRes.EpochLosses)
		})
	}
}

// TestTrainMLPMatchesPerSampleReference pins the layer-batched MLP trainer
// (which also folds the old second forward pass into the batched forward)
// to the old per-sample loop, over both hidden activations and both heads.
func TestTrainMLPMatchesPerSampleReference(t *testing.T) {
	ds := equivDataset(t, 53) // mini-batches of 16, 16, 16, 5
	cases := []struct {
		name   string
		hidden Activation
		out    Activation
		crit   Loss
	}{
		{"relu-softmax", ActReLU, ActSoftmax, LossCrossEntropy},
		{"sigmoid-linear", ActSigmoid, ActLinear, LossMSE},
		{"relu-relu", ActReLU, ActReLU, LossMSE},
		{"sigmoid-sigmoid", ActSigmoid, ActSigmoid, LossMSE},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			widths := []int{ds.Dim(), 17, 12, ds.NumClasses} // two hidden layers
			ref, err := NewMLP(widths, c.hidden, c.out, c.crit)
			if err != nil {
				t.Fatal(err)
			}
			ref.InitXavier(rng.New(13))
			got := &MLP{Layers: make([]*tensor.Matrix, len(ref.Layers)), Hidden: ref.Hidden, Out: ref.Out, Crit: ref.Crit}
			for l, w := range ref.Layers {
				got.Layers[l] = w.Clone()
			}
			cfg := TrainConfig{Epochs: 2, BatchSize: 16, LearningRate: 0.1, Momentum: 0.8, WeightDecay: 0.001}
			refRes := referenceTrainMLP(ref, ds, cfg, rng.New(17))
			gotRes, err := TrainMLP(got, ds, cfg, rng.New(17))
			if err != nil {
				t.Fatal(err)
			}
			for l := range ref.Layers {
				requireEquivMatrix(t, "layer weights", got.Layers[l], ref.Layers[l])
			}
			requireEquivVec(t, "epoch losses", gotRes.EpochLosses, refRes.EpochLosses)
		})
	}
}

// TestBatchStepAllocationFree pins the allocation contract of the batched
// training step: after workspace construction, a full gather + forward +
// backprop step allocates nothing (satellite of ISSUE 2).
func TestBatchStepAllocationFree(t *testing.T) {
	var sink float64
	ds := equivDataset(t, 64)
	net, err := NewNetwork(ds.NumClasses, ds.Dim(), ActSoftmax, LossCrossEntropy)
	if err != nil {
		t.Fatal(err)
	}
	net.InitXavier(rng.New(3))
	targets := ds.OneHot()
	grad := tensor.New(net.Outputs(), net.Inputs())
	ws := newBatchWorkspace(32, ds.Len(), net.Inputs(), net.Outputs())
	idxs := make([]int, 32)
	for i := range idxs {
		idxs[i] = i
	}
	v := ws.views(32)
	if n := testing.AllocsPerRun(10, func() {
		net.batchStep(ds.X, targets, idxs, v, grad, &sink)
	}); n != 0 {
		t.Errorf("Network.batchStep allocates %v per step, want 0", n)
	}

	mlp, err := NewMLP([]int{ds.Dim(), 16, ds.NumClasses}, ActReLU, ActSoftmax, LossCrossEntropy)
	if err != nil {
		t.Fatal(err)
	}
	mlp.InitXavier(rng.New(5))
	sums := make([]*tensor.Matrix, len(mlp.Layers))
	for l, w := range mlp.Layers {
		sums[l] = tensor.New(w.Rows(), w.Cols())
	}
	mws := newMLPWorkspace(mlp, 32, ds.Len())
	mv := mws.views(32)
	if n := testing.AllocsPerRun(10, func() {
		mlp.batchStep(ds.X, targets, idxs, mv, sums, &sink)
	}); n != 0 {
		t.Errorf("MLP.batchStep allocates %v per step, want 0", n)
	}
}
