package nn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"xbarsec/internal/dataset"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

func TestNewNetworkValidation(t *testing.T) {
	tests := []struct {
		name    string
		out, in int
		act     Activation
		crit    Loss
		wantErr bool
	}{
		{"linear mse", 3, 4, ActLinear, LossMSE, false},
		{"softmax ce", 3, 4, ActSoftmax, LossCrossEntropy, false},
		{"sigmoid mse", 3, 4, ActSigmoid, LossMSE, false},
		{"relu mse", 3, 4, ActReLU, LossMSE, false},
		{"softmax mse rejected", 3, 4, ActSoftmax, LossMSE, true},
		{"linear ce rejected", 3, 4, ActLinear, LossCrossEntropy, true},
		{"zero outputs", 0, 4, ActLinear, LossMSE, true},
		{"zero inputs", 3, 0, ActLinear, LossMSE, true},
		{"unknown act", 3, 4, Activation(0), LossMSE, true},
		{"unknown loss", 3, 4, ActLinear, Loss(0), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewNetwork(tt.out, tt.in, tt.act, tt.crit)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if tt.wantErr && err != nil && tt.act != Activation(0) && tt.crit != Loss(0) && tt.out > 0 && tt.in > 0 {
				if !errors.Is(err, ErrBadConfig) {
					t.Fatalf("want ErrBadConfig, got %v", err)
				}
			}
		})
	}
}

func TestEnumStrings(t *testing.T) {
	if ActLinear.String() != "linear" || ActSoftmax.String() != "softmax" ||
		ActSigmoid.String() != "sigmoid" || ActReLU.String() != "relu" {
		t.Fatal("activation names")
	}
	if LossMSE.String() != "mse" || LossCrossEntropy.String() != "crossentropy" {
		t.Fatal("loss names")
	}
	if Activation(9).String() == "" || Loss(9).String() == "" {
		t.Fatal("unknown enum should still print")
	}
}

func TestForwardLinearIsMatVec(t *testing.T) {
	n, err := NewNetwork(2, 3, ActLinear, LossMSE)
	if err != nil {
		t.Fatal(err)
	}
	n.W.SetRow(0, []float64{1, 0, -1})
	n.W.SetRow(1, []float64{0.5, 2, 0})
	u := []float64{1, 2, 3}
	y := n.Forward(u)
	if math.Abs(y[0]+2) > 1e-12 || math.Abs(y[1]-4.5) > 1e-12 {
		t.Fatalf("Forward = %v", y)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(8)
		s := src.NormalVec(n, 0, 5)
		y := softmaxInPlace(tensor.CloneVec(s))
		var sum float64
		for _, v := range y {
			if v <= 0 || v > 1 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Invariance to constant shift.
		shifted := tensor.CloneVec(s)
		for i := range shifted {
			shifted[i] += 100
		}
		y2 := softmaxInPlace(shifted)
		for i := range y {
			if math.Abs(y[i]-y2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxOverflowStability(t *testing.T) {
	y := softmaxInPlace([]float64{1000, 1001, 999})
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", y)
		}
	}
}

func TestSigmoidReLUForward(t *testing.T) {
	n, _ := NewNetwork(1, 1, ActSigmoid, LossMSE)
	n.W.Set(0, 0, 1)
	if got := n.Forward([]float64{0})[0]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", got)
	}
	r, _ := NewNetwork(1, 1, ActReLU, LossMSE)
	r.W.Set(0, 0, 1)
	if got := r.Forward([]float64{-3})[0]; got != 0 {
		t.Fatalf("relu(-3) = %v", got)
	}
	if got := r.Forward([]float64{3})[0]; got != 3 {
		t.Fatalf("relu(3) = %v", got)
	}
}

func TestLossValues(t *testing.T) {
	n, _ := NewNetwork(2, 2, ActLinear, LossMSE)
	n.W.SetRow(0, []float64{1, 0})
	n.W.SetRow(1, []float64{0, 1})
	// y = [1, 0], target [0, 1] → mse = (1+1)/2 = 1.
	if got := n.LossValue([]float64{1, 0}, []float64{0, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MSE = %v", got)
	}
	s, _ := NewNetwork(2, 2, ActSoftmax, LossCrossEntropy)
	s.W.SetRow(0, []float64{1, 0})
	s.W.SetRow(1, []float64{0, 1})
	// Symmetric logits → y = [0.5, 0.5] → CE = ln 2.
	if got := s.LossValue([]float64{1, 1}, []float64{1, 0}); math.Abs(got-math.Ln2) > 1e-9 {
		t.Fatalf("CE = %v, want ln2", got)
	}
}

// numericalInputGradient approximates ∂L/∂u by central differences.
func numericalInputGradient(n *Network, u, target []float64) []float64 {
	const h = 1e-6
	g := make([]float64, len(u))
	for j := range u {
		up := tensor.CloneVec(u)
		um := tensor.CloneVec(u)
		up[j] += h
		um[j] -= h
		g[j] = (n.LossValue(up, target) - n.LossValue(um, target)) / (2 * h)
	}
	return g
}

func TestInputGradientMatchesNumerical(t *testing.T) {
	configs := []struct {
		act  Activation
		crit Loss
	}{
		{ActLinear, LossMSE},
		{ActSoftmax, LossCrossEntropy},
		{ActSigmoid, LossMSE},
	}
	src := rng.New(42)
	for _, cfg := range configs {
		t.Run(cfg.act.String(), func(t *testing.T) {
			n, err := NewNetwork(4, 6, cfg.act, cfg.crit)
			if err != nil {
				t.Fatal(err)
			}
			n.InitXavier(src.Split(cfg.act.String()))
			u := src.UniformVec(6, 0, 1)
			target := []float64{0, 1, 0, 0}
			got := n.InputGradient(u, target)
			want := numericalInputGradient(n, u, target)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-5 {
					t.Fatalf("input grad[%d] = %v, numerical %v", j, got[j], want[j])
				}
			}
		})
	}
}

func TestWeightGradientMatchesNumerical(t *testing.T) {
	src := rng.New(7)
	n, err := NewNetwork(3, 4, ActSoftmax, LossCrossEntropy)
	if err != nil {
		t.Fatal(err)
	}
	n.InitXavier(src)
	u := src.UniformVec(4, 0, 1)
	target := []float64{0, 0, 1}
	// The trainer's gradient: one batchStep over a one-sample batch.
	x := tensor.New(1, n.Inputs())
	copy(x.Row(0), u)
	targets := tensor.New(1, n.Outputs())
	copy(targets.Row(0), target)
	got := tensor.New(n.Outputs(), n.Inputs())
	var loss float64
	n.batchStep(x, targets, []int{0}, &newBatchWorkspace(1, 1, n.Inputs(), n.Outputs()).full, got, &loss)
	const h = 1e-6
	for i := 0; i < n.Outputs(); i++ {
		for j := 0; j < n.Inputs(); j++ {
			orig := n.W.At(i, j)
			n.W.Set(i, j, orig+h)
			lp := n.LossValue(u, target)
			n.W.Set(i, j, orig-h)
			lm := n.LossValue(u, target)
			n.W.Set(i, j, orig)
			want := (lp - lm) / (2 * h)
			if math.Abs(got.At(i, j)-want) > 1e-5 {
				t.Fatalf("weight grad (%d,%d) = %v, numerical %v", i, j, got.At(i, j), want)
			}
		}
	}
}

// TestInputGradientBound verifies Eq. (8): |∂L/∂u_j| <= Σ_i |∂L/∂ŷ_i f'| |w_ij|.
// For linear+MSE, f'=1 and ∂L/∂ŷ_i = 2(y_i-t_i)/M.
func TestInputGradientBoundEq8(t *testing.T) {
	src := rng.New(3)
	n, _ := NewNetwork(5, 8, ActLinear, LossMSE)
	n.InitXavier(src)
	u := src.UniformVec(8, 0, 1)
	target := make([]float64, 5)
	target[2] = 1
	g := n.InputGradient(u, target)
	y := n.Forward(u)
	for j := 0; j < 8; j++ {
		var bound float64
		for i := 0; i < 5; i++ {
			bound += math.Abs(2/float64(5)*(y[i]-target[i])) * math.Abs(n.W.At(i, j))
		}
		if math.Abs(g[j]) > bound+1e-12 {
			t.Fatalf("Eq.8 violated at %d: |g|=%v > bound=%v", j, math.Abs(g[j]), bound)
		}
	}
}

func trainTinyDataset(t *testing.T, act Activation, crit Loss) (*Network, *dataset.Dataset) {
	t.Helper()
	src := rng.New(99)
	ds, err := dataset.GenerateMNISTLike(src.Split("data"), 200, dataset.MNISTLikeConfig{
		Size: 12, StrokeWidth: 0.06, Jitter: 0.5, PixelNoise: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, res, err := TrainNew(ds, act, crit, TrainConfig{
		Epochs: 20, BatchSize: 16, LearningRate: 0.1, Momentum: 0.9,
	}, src.Split("train"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochLosses) != 20 {
		t.Fatalf("epoch losses %d", len(res.EpochLosses))
	}
	first, last := res.EpochLosses[0], res.EpochLosses[len(res.EpochLosses)-1]
	if last >= first {
		t.Fatalf("training did not reduce loss: %v -> %v", first, last)
	}
	return net, ds
}

func TestTrainingReducesLossAndFits(t *testing.T) {
	for _, cfg := range []struct {
		act  Activation
		crit Loss
	}{{ActLinear, LossMSE}, {ActSoftmax, LossCrossEntropy}} {
		t.Run(cfg.act.String(), func(t *testing.T) {
			net, ds := trainTinyDataset(t, cfg.act, cfg.crit)
			acc := net.Accuracy(ds)
			if acc < 0.8 {
				t.Fatalf("train accuracy %v too low for separable data", acc)
			}
		})
	}
}

func TestTrainValidation(t *testing.T) {
	src := rng.New(1)
	ds, err := dataset.GenerateMNISTLike(src, 20, dataset.MNISTLikeConfig{Size: 8, StrokeWidth: 0.06, Jitter: 0, PixelNoise: 0})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := NewNetwork(10, ds.Dim(), ActLinear, LossMSE)
	tests := []struct {
		name string
		cfg  TrainConfig
	}{
		{"zero epochs", TrainConfig{Epochs: 0, LearningRate: 0.1}},
		{"zero lr", TrainConfig{Epochs: 1}},
		{"bad momentum", TrainConfig{Epochs: 1, LearningRate: 0.1, Momentum: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Train(n, ds, tt.cfg, src); err == nil {
				t.Fatal("expected config error")
			}
		})
	}
	wrong, _ := NewNetwork(10, 5, ActLinear, LossMSE)
	if _, err := Train(wrong, ds, TrainConfig{Epochs: 1, LearningRate: 0.1}, src); err == nil {
		t.Fatal("dim mismatch must error")
	}
	wrongC, _ := NewNetwork(3, ds.Dim(), ActLinear, LossMSE)
	if _, err := Train(wrongC, ds, TrainConfig{Epochs: 1, LearningRate: 0.1}, src); err == nil {
		t.Fatal("class mismatch must error")
	}
}

func TestTrainDeterminism(t *testing.T) {
	src1 := rng.New(5)
	src2 := rng.New(5)
	ds1, _ := dataset.GenerateMNISTLike(src1.Split("d"), 50, dataset.MNISTLikeConfig{Size: 8, StrokeWidth: 0.06, Jitter: 0.5, PixelNoise: 0.02})
	ds2, _ := dataset.GenerateMNISTLike(src2.Split("d"), 50, dataset.MNISTLikeConfig{Size: 8, StrokeWidth: 0.06, Jitter: 0.5, PixelNoise: 0.02})
	cfg := TrainConfig{Epochs: 5, BatchSize: 8, LearningRate: 0.05, Momentum: 0.9}
	a, _, err := TrainNew(ds1, ActLinear, LossMSE, cfg, src1.Split("t"))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := TrainNew(ds2, ActLinear, LossMSE, cfg, src2.Split("t"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.W.Equal(b.W, 0) {
		t.Fatal("training must be deterministic given a seed")
	}
}

func TestCloneIndependence(t *testing.T) {
	n, _ := NewNetwork(2, 2, ActLinear, LossMSE)
	c := n.Clone()
	c.W.Set(0, 0, 42)
	if n.W.At(0, 0) == 42 {
		t.Fatal("Clone must deep-copy W")
	}
}

func TestMeanAbsInputGradientShape(t *testing.T) {
	src := rng.New(8)
	ds, _ := dataset.GenerateMNISTLike(src, 30, dataset.MNISTLikeConfig{Size: 8, StrokeWidth: 0.06, Jitter: 0.3, PixelNoise: 0.02})
	n, _ := NewNetwork(10, ds.Dim(), ActLinear, LossMSE)
	n.InitXavier(src)
	g := n.MeanAbsInputGradient(ds)
	if len(g) != ds.Dim() {
		t.Fatalf("len = %d", len(g))
	}
	for _, v := range g {
		if v < 0 {
			t.Fatal("mean absolute gradient must be non-negative")
		}
	}
}

func TestAccuracyEmptyDataset(t *testing.T) {
	n, _ := NewNetwork(2, 4, ActLinear, LossMSE)
	empty := &dataset.Dataset{X: tensor.New(0, 4), NumClasses: 2, Width: 2, Height: 2, Channels: 1}
	if n.Accuracy(empty) != 0 {
		t.Fatal("empty dataset accuracy must be 0")
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	src := rng.New(13)
	ds, _ := dataset.GenerateMNISTLike(src.Split("d"), 60, dataset.MNISTLikeConfig{Size: 8, StrokeWidth: 0.06, Jitter: 0.3, PixelNoise: 0.02})
	cfg := TrainConfig{Epochs: 10, BatchSize: 16, LearningRate: 0.05, Momentum: 0.9}
	plain, _, err := TrainNew(ds, ActLinear, LossMSE, cfg, src.Split("t"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.WeightDecay = 0.1
	decayed, _, err := TrainNew(ds, ActLinear, LossMSE, cfg, src.Split("t"))
	if err != nil {
		t.Fatal(err)
	}
	if decayed.W.FrobeniusNorm() >= plain.W.FrobeniusNorm() {
		t.Fatal("weight decay should shrink the weight norm")
	}
}
