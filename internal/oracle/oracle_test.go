package oracle

import (
	"errors"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
	"xbarsec/internal/rng"
)

func buildOracle(t *testing.T, seed int64, mode Mode, power bool) (*Oracle, *nn.Network, *dataset.Dataset) {
	t.Helper()
	src := rng.New(seed)
	ds, err := dataset.GenerateMNISTLike(src.Split("data"), 80, dataset.MNISTLikeConfig{
		Size: 10, StrokeWidth: 0.06, Jitter: 0.4, PixelNoise: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := nn.TrainNew(ds, nn.ActLinear, nn.LossMSE, nn.TrainConfig{
		Epochs: 8, BatchSize: 16, LearningRate: 0.1, Momentum: 0.9,
	}, src.Split("train"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(hw, Config{Mode: mode, MeasurePower: power})
	if err != nil {
		t.Fatal(err)
	}
	return o, net, ds
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{Mode: LabelOnly}); err == nil {
		t.Fatal("nil hw must error")
	}
	_, net, _ := buildOracle(t, 1, LabelOnly, false)
	cfg := crossbar.DefaultDeviceConfig()
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(hw, Config{Mode: Mode(0)}); err == nil {
		t.Fatal("unknown mode must error")
	}
	if _, err := New(hw, Config{Mode: LabelOnly, PowerNoiseStd: -1}); err == nil {
		t.Fatal("negative noise must error")
	}
	if _, err := New(hw, Config{Mode: LabelOnly, PowerNoiseStd: 0.1}); err == nil {
		t.Fatal("noise without src must error")
	}
}

func TestModeString(t *testing.T) {
	if LabelOnly.String() != "label-only" || RawOutput.String() != "raw-output" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should print")
	}
}

func TestQueryLabelOnlyHidesRaw(t *testing.T) {
	o, net, ds := buildOracle(t, 2, LabelOnly, false)
	u, _ := ds.Sample(0)
	resp, err := o.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Raw != nil {
		t.Fatal("label-only mode must not reveal raw outputs")
	}
	if resp.Label != net.Predict(u) {
		t.Fatal("oracle label must match the software twin on an ideal crossbar")
	}
	if resp.Power != 0 {
		t.Fatal("power must be zero when not measured")
	}
	if o.Queries() != 1 {
		t.Fatalf("queries = %d", o.Queries())
	}
}

func TestQueryRawModeRevealsOutputsAndPower(t *testing.T) {
	o, net, ds := buildOracle(t, 3, RawOutput, true)
	u, _ := ds.Sample(1)
	resp, err := o.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Raw) != 10 {
		t.Fatalf("raw length %d", len(resp.Raw))
	}
	want := net.Forward(u)
	for i := range want {
		if diff := resp.Raw[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("raw output %d: %v vs %v", i, resp.Raw[i], want[i])
		}
	}
	if resp.Power <= 0 {
		t.Fatalf("power = %v, want positive", resp.Power)
	}
}

func TestCollectShapesAndCounting(t *testing.T) {
	o, _, ds := buildOracle(t, 4, RawOutput, true)
	qs, err := Collect(o, ds, 25, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if qs.Len() != 25 || qs.U.Cols() != o.Inputs() || qs.Y.Cols() != o.Outputs() {
		t.Fatalf("shapes U=%dx%d Y=%dx%d", qs.U.Rows(), qs.U.Cols(), qs.Y.Rows(), qs.Y.Cols())
	}
	if len(qs.P) != 25 || len(qs.Labels) != 25 {
		t.Fatal("power/labels lengths")
	}
	if o.Queries() != 25 {
		t.Fatalf("queries = %d", o.Queries())
	}
	o.ResetQueries()
	if o.Queries() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCollectLabelOnlyOneHot(t *testing.T) {
	o, _, ds := buildOracle(t, 6, LabelOnly, false)
	qs, err := Collect(o, ds, 10, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if qs.P != nil {
		t.Fatal("no power requested but P is set")
	}
	for i := 0; i < qs.Len(); i++ {
		row := qs.Y.Row(i)
		var ones, sum int
		for c, v := range row {
			if v == 1 {
				ones++
				if c != qs.Labels[i] {
					t.Fatal("one-hot position must match label")
				}
			}
			if v != 0 && v != 1 {
				t.Fatal("one-hot values must be 0/1")
			}
			sum += int(v)
		}
		if ones != 1 || sum != 1 {
			t.Fatal("exactly one hot entry per row")
		}
	}
}

func TestCollectClampsBudget(t *testing.T) {
	o, _, ds := buildOracle(t, 7, LabelOnly, false)
	qs, err := Collect(o, ds, 10_000, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if qs.Len() != ds.Len() {
		t.Fatalf("len = %d, want %d", qs.Len(), ds.Len())
	}
	if _, err := Collect(o, ds, 0, rng.New(7)); err == nil {
		t.Fatal("zero budget must error")
	}
}

func TestAccuracyMatchesSoftwareTwin(t *testing.T) {
	o, net, ds := buildOracle(t, 8, LabelOnly, false)
	hwAcc, err := o.AccuracyOn(ds)
	if err != nil {
		t.Fatal(err)
	}
	swAcc := net.Accuracy(ds)
	if hwAcc != swAcc {
		t.Fatalf("ideal crossbar accuracy %v != software %v", hwAcc, swAcc)
	}
	// Accuracy evaluation must not consume attacker queries.
	if o.Queries() != 0 {
		t.Fatal("accuracy evaluation must not count queries")
	}
}

func TestPowerNoiseApplied(t *testing.T) {
	_, net, ds := buildOracle(t, 10, RawOutput, true)
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(hw, Config{Mode: RawOutput, MeasurePower: true, PowerNoiseStd: 0.1, Src: rng.New(11)})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := ds.Sample(0)
	a, err := o.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	if a.Power == b.Power {
		t.Fatal("noisy power readings should differ across queries")
	}
}

func TestQueryBudgetEnforced(t *testing.T) {
	_, net, ds := buildOracle(t, 12, LabelOnly, false)
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(hw, Config{Mode: LabelOnly, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if o.Budget() != 3 || o.Remaining() != 3 {
		t.Fatal("budget accounting")
	}
	u, _ := ds.Sample(0)
	for i := 0; i < 3; i++ {
		if _, err := o.Query(u); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if o.Remaining() != 0 {
		t.Fatalf("remaining = %d", o.Remaining())
	}
	if _, err := o.Query(u); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// Reset restores the budget.
	o.ResetQueries()
	if _, err := o.Query(u); err != nil {
		t.Fatalf("after reset: %v", err)
	}
	// Unlimited oracle reports -1 remaining.
	u2, err := New(hw, Config{Mode: LabelOnly})
	if err != nil {
		t.Fatal(err)
	}
	if u2.Remaining() != -1 {
		t.Fatal("unlimited oracle must report -1 remaining")
	}
	if _, err := New(hw, Config{Mode: LabelOnly, Budget: -1}); err == nil {
		t.Fatal("negative budget must error")
	}
}
