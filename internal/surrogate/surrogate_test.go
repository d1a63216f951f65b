package surrogate

import (
	"testing"
	"xbarsec/internal/stats"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// testbed builds a trained oracle on a small synthetic digit task.
type testbed struct {
	oracle *oracle.Oracle
	victim *nn.Network
	train  *dataset.Dataset
	test   *dataset.Dataset
}

func newTestbed(t *testing.T, seed int64, mode oracle.Mode) *testbed {
	t.Helper()
	src := rng.New(seed)
	cfg := dataset.MNISTLikeConfig{Size: 10, StrokeWidth: 0.06, Jitter: 0.4, PixelNoise: 0.02}
	train, err := dataset.GenerateMNISTLike(src.Split("train"), 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.GenerateMNISTLike(src.Split("test"), 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim, _, err := nn.TrainNew(train, nn.ActLinear, nn.LossMSE, nn.TrainConfig{
		Epochs: 15, BatchSize: 16, LearningRate: 0.1, Momentum: 0.9,
	}, src.Split("fit"))
	if err != nil {
		t.Fatal(err)
	}
	dcfg := crossbar.DefaultDeviceConfig()
	dcfg.GOff = 0
	hw, err := crossbar.NewNetwork(victim, dcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.New(hw, oracle.Config{Mode: mode, MeasurePower: true})
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{oracle: o, victim: victim, train: train, test: test}
}

func TestTrainValidation(t *testing.T) {
	tb := newTestbed(t, 1, oracle.RawOutput)
	qs, err := oracle.Collect(tb.oracle, tb.train, 20, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero epochs", Config{Epochs: 0, LearningRate: 0.1}},
		{"zero lr", Config{Epochs: 1}},
		{"bad momentum", Config{Epochs: 1, LearningRate: 0.1, Momentum: 1}},
		{"negative lambda", Config{Epochs: 1, LearningRate: 0.1, Lambda: -0.1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Train(qs, tt.cfg, rng.New(2)); err == nil {
				t.Fatal("expected config error")
			}
		})
	}
	if _, err := Train(nil, DefaultConfig(), rng.New(2)); err == nil {
		t.Fatal("nil query set must error")
	}
	noPower := &oracle.QuerySet{U: qs.U, Y: qs.Y, Labels: qs.Labels}
	cfg := DefaultConfig()
	cfg.Lambda = 0.01
	if _, err := Train(noPower, cfg, rng.New(2)); err == nil {
		t.Fatal("lambda > 0 without power data must error")
	}
}

func TestSurrogateLearnsFromRawQueries(t *testing.T) {
	tb := newTestbed(t, 2, oracle.RawOutput)
	qs, err := oracle.Collect(tb.oracle, tb.train, 200, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	model, err := Train(qs, cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	acc := model.Accuracy(tb.test.X, tb.test.Labels)
	if acc < 0.5 {
		t.Fatalf("surrogate accuracy %v too low after 200 raw queries", acc)
	}
}

func TestMoreQueriesHelp(t *testing.T) {
	tb := newTestbed(t, 3, oracle.RawOutput)
	accs := make([]float64, 0, 2)
	for _, q := range []int{20, 250} {
		tb.oracle.ResetQueries()
		qs, err := oracle.Collect(tb.oracle, tb.train, q, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		model, err := Train(qs, DefaultConfig(), rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, model.Accuracy(tb.test.X, tb.test.Labels))
	}
	if accs[1] <= accs[0] {
		t.Fatalf("more queries should improve the surrogate: %v", accs)
	}
}

func TestPowerTermImprovesLowQuerySurrogate(t *testing.T) {
	// The paper's central Case-2 claim: at moderate query budgets, adding
	// the power loss improves the surrogate. Averaged over several seeds
	// to avoid flakiness.
	var gains float64
	const seeds = 3
	for s := int64(0); s < seeds; s++ {
		tb := newTestbed(t, 10+s, oracle.RawOutput)
		qs, err := oracle.Collect(tb.oracle, tb.train, 40, rng.New(20+s))
		if err != nil {
			t.Fatal(err)
		}
		base := DefaultConfig()
		noPower, err := Train(qs, base, rng.New(30+s))
		if err != nil {
			t.Fatal(err)
		}
		base.Lambda = 0.01
		withPower, err := Train(qs, base, rng.New(30+s))
		if err != nil {
			t.Fatal(err)
		}
		gains += withPower.Accuracy(tb.test.X, tb.test.Labels) - noPower.Accuracy(tb.test.X, tb.test.Labels)
	}
	if gains/seeds < -0.02 {
		t.Fatalf("power term hurt accuracy on average: mean gain %v", gains/seeds)
	}
}

func TestPowerPredictionTracksOracle(t *testing.T) {
	tb := newTestbed(t, 4, oracle.RawOutput)
	qs, err := oracle.Collect(tb.oracle, tb.train, 150, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Lambda = 0.01
	model, err := Train(qs, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	// Predicted power, p̂(u) = Σ_j u_j Σ_i |ŵ_ij| (Eq. 5/6 in normalized
	// units), should correlate with measured power on the training
	// queries.
	colNorms := model.Net.W.ColAbsSums()
	pred := make([]float64, qs.Len())
	meas := make([]float64, qs.Len())
	for i := 0; i < qs.Len(); i++ {
		pred[i] = tensor.Dot(qs.U.Row(i), colNorms)
		meas[i] = qs.P[i]
	}
	corr, err := stats.Pearson(pred, meas)
	if err != nil {
		t.Skipf("degenerate power variance: %v", err)
	}
	if corr < 0.5 {
		t.Fatalf("power prediction correlation %v too low", corr)
	}
	// And the absolute power scale should roughly match (normalized
	// units make them directly comparable).
	ratio := stats.Mean(pred) / stats.Mean(meas)
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("power scale ratio %v far from 1", ratio)
	}
}

func TestAlgebraicExtractExactRecovery(t *testing.T) {
	tb := newTestbed(t, 5, oracle.RawOutput)
	n := tb.victim.Inputs()
	qs, err := oracle.Collect(tb.oracle, tb.train, n+30, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if qs.Len() < n {
		t.Skipf("not enough training samples (%d) for exact recovery of %d dims", qs.Len(), n)
	}
	net, err := AlgebraicExtract(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !net.W.Equal(tb.victim.W, 1e-6) {
		diff := net.W.Clone()
		diff.SubMatrix(tb.victim.W)
		t.Fatalf("W = U†Ŷ recovery failed, max error %v", diff.MaxAbs())
	}
}

func TestAlgebraicExtractValidation(t *testing.T) {
	if _, err := AlgebraicExtract(nil); err == nil {
		t.Fatal("nil query set must error")
	}
	if _, err := AlgebraicExtract(&oracle.QuerySet{U: tensor.New(0, 3), Y: tensor.New(0, 2)}); err == nil {
		t.Fatal("empty query set must error")
	}
}

func TestLabelOnlyTrainingStillLearns(t *testing.T) {
	tb := newTestbed(t, 6, oracle.LabelOnly)
	qs, err := oracle.Collect(tb.oracle, tb.train, 250, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(qs, DefaultConfig(), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	acc := model.Accuracy(tb.test.X, tb.test.Labels)
	if acc < 0.4 {
		t.Fatalf("label-only surrogate accuracy %v too low", acc)
	}
}

func TestTrainDeterminism(t *testing.T) {
	tb := newTestbed(t, 7, oracle.RawOutput)
	qs, err := oracle.Collect(tb.oracle, tb.train, 60, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Lambda = 0.004
	a, err := Train(qs, cfg, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(qs, cfg, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Net.W.Equal(b.Net.W, 0) {
		t.Fatal("surrogate training must be deterministic per seed")
	}
}
