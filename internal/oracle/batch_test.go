package oracle

import (
	"errors"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/rng"
)

// batchFailHW fails the batched fused read, to pin the all-or-nothing
// rollback.
type batchFailHW struct {
	*crossbar.Network
}

func (f *batchFailHW) ForwardPowerBatch(us [][]float64) ([][]float64, []float64, error) {
	return nil, nil, errMeter
}

// TestQueryBatchMatchesSequential pins QueryBatch == N sequential
// Query calls on the raw hardware, across disclosure/power modes.
func TestQueryBatchMatchesSequential(t *testing.T) {
	cases := []struct {
		name  string
		mode  Mode
		power bool
		noise float64
	}{
		{"label-only", LabelOnly, false, 0},
		{"raw", RawOutput, false, 0},
		{"raw+power", RawOutput, true, 0},
		{"raw+power+noise", RawOutput, true, 0.03},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, net, ds := buildOracle(t, 31, tc.mode, tc.power)
			cfg := crossbar.DefaultDeviceConfig()
			cfg.GOff = 0
			mk := func() *Oracle {
				hw, err := crossbar.NewNetwork(net, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				ocfg := Config{Mode: tc.mode, MeasurePower: tc.power, Budget: 32}
				if tc.noise > 0 {
					ocfg.PowerNoiseStd = tc.noise
					ocfg.Src = rng.New(99).Split("noise")
				}
				o, err := New(hw, ocfg)
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			seq, batch := mk(), mk()
			inputs := make([][]float64, 9)
			for i := range inputs {
				inputs[i], _ = ds.Sample(i)
			}
			want := make([]Response, len(inputs))
			var err error
			for i, u := range inputs {
				if want[i], err = seq.Query(u); err != nil {
					t.Fatal(err)
				}
			}
			got, err := batch.QueryBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Label != want[i].Label || got[i].Power != want[i].Power {
					t.Fatalf("response %d = %+v, want %+v", i, got[i], want[i])
				}
				for j := range want[i].Raw {
					if got[i].Raw[j] != want[i].Raw[j] {
						t.Fatalf("response %d raw[%d] diverged", i, j)
					}
				}
			}
			if seq.Queries() != batch.Queries() {
				t.Fatalf("accounting: %d vs %d", seq.Queries(), batch.Queries())
			}
		})
	}
}

// TestQueryBatchHardwareErrorChargesNothing pins the batched accounting
// contract's error side: a failed batched read rolls back every
// reservation.
func TestQueryBatchHardwareErrorChargesNothing(t *testing.T) {
	_, net, ds := buildOracle(t, 33, RawOutput, true)
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(&batchFailHW{Network: hw}, Config{Mode: RawOutput, MeasurePower: true, Budget: 7})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, 4)
	for i := range inputs {
		inputs[i], _ = ds.Sample(i)
	}
	if _, err := o.QueryBatch(inputs); !errors.Is(err, errMeter) {
		t.Fatalf("err = %v, want injected meter error", err)
	}
	if o.Queries() != 0 || o.Remaining() != 7 {
		t.Fatalf("failed batch charged budget: %d queries, %d remaining", o.Queries(), o.Remaining())
	}
	// An empty batch is a no-op.
	if resps, err := o.QueryBatch(nil); resps != nil || err != nil {
		t.Fatalf("empty batch: %v, %v", resps, err)
	}
}

// TestQueryBatchUnlimitedBudget pins the unlimited (budget 0) path:
// everything is admitted and counted.
func TestQueryBatchUnlimitedBudget(t *testing.T) {
	o, _, ds := buildOracle(t, 35, RawOutput, false)
	inputs := make([][]float64, 5)
	for i := range inputs {
		inputs[i], _ = ds.Sample(i)
	}
	resps, err := o.QueryBatch(inputs)
	if err != nil || len(resps) != 5 {
		t.Fatalf("unlimited batch: %d responses, %v", len(resps), err)
	}
	if o.Queries() != 5 || o.Remaining() != -1 {
		t.Fatalf("unlimited accounting: %d queries, %d remaining", o.Queries(), o.Remaining())
	}
}
