package nn

import (
	"math"
	"testing"

	"xbarsec/internal/dataset"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

func batchFixture(t *testing.T) (*Network, *dataset.Dataset) {
	t.Helper()
	src := rng.New(41)
	ds, err := dataset.GenerateMNISTLike(src.Split("d"), 60, dataset.MNISTLikeConfig{
		Size: 10, StrokeWidth: 0.06, Jitter: 0.3, PixelNoise: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := TrainNew(ds, ActSoftmax, LossCrossEntropy, TrainConfig{
		Epochs: 8, BatchSize: 16, LearningRate: 0.1, Momentum: 0.9,
	}, src.Split("t"))
	if err != nil {
		t.Fatal(err)
	}
	return net, ds
}

func TestForwardBatchMatchesSingle(t *testing.T) {
	net, ds := batchFixture(t)
	y, err := net.ForwardBatch(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		want := net.Forward(ds.X.Row(i))
		got := y.Row(i)
		for c := range want {
			if math.Abs(got[c]-want[c]) > 1e-12 {
				t.Fatalf("row %d class %d: %v vs %v", i, c, got[c], want[c])
			}
		}
	}
}

func TestPredictAccuracyBatchMatchesSingle(t *testing.T) {
	net, ds := batchFixture(t)
	preds, err := net.PredictBatch(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if preds[i] != net.Predict(ds.X.Row(i)) {
			t.Fatalf("prediction %d differs", i)
		}
	}
}

func TestInputGradientBatchMatchesSingle(t *testing.T) {
	net, ds := batchFixture(t)
	oh := ds.OneHot()
	g, err := net.InputGradientBatch(ds.X, oh)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		want := net.InputGradient(ds.X.Row(i), oh.Row(i))
		got := g.Row(i)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("gradient (%d,%d) differs", i, j)
			}
		}
	}
}

func TestBatchValidation(t *testing.T) {
	net, ds := batchFixture(t)
	if _, err := net.ForwardBatch(tensor.New(3, 5)); err == nil {
		t.Fatal("wrong width must error")
	}
	if _, err := net.InputGradientBatch(ds.X, tensor.New(2, 10)); err == nil {
		t.Fatal("target shape mismatch must error")
	}
}
