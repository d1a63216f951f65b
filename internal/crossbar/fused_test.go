package crossbar

import (
	"math"
	"testing"

	"xbarsec/internal/nn"
	"xbarsec/internal/rng"
)

// sweepTotal is the general sweep's supply current over a noise-free
// array's effective conductances, written out in its order: rows, then
// columns with zero inputs skipped, then the masking row. TotalCurrent
// serves inputs with at most one nonzero by the column walk it shares
// with the fused kernel, so this is the reference that pins the walk's
// totals.
func sweepTotal(x *Crossbar, u []float64) float64 {
	x.effective()
	var total float64
	for i := 0; i < x.rows; i++ {
		for j, uj := range u {
			if uj != 0 {
				total += float64(x.effSum.At(i, j) * uj * x.cfg.Vdd)
			}
		}
	}
	for j, uj := range u {
		if uj != 0 && x.effMask != nil {
			total += float64(x.effMask[j] * uj * x.cfg.Vdd)
		}
	}
	return total
}

// checkFusedMatches pins the fused serving kernel to the sequential
// Forward-then-Power reads, per input in that order, on fresh
// identically-programmed twins (bit-identical, including the noise
// stream consumption order of noisy arrays and the sign of zeros).
// OutputCurrents has no column walk and sweeps one input at a time, so
// the fused kernel's walked and grouped outputs are checked against the
// general sweep; on a noise-free array every total is also checked
// against sweepTotal. The fused kernel reads every prefix of us, each on
// a fresh twin, so each way a batch splits into groups of eight and a
// remainder is checked.
func checkFusedMatches(t *testing.T, program func() *Crossbar, us [][]float64) {
	t.Helper()
	if ref := program(); !ref.Noisy() {
		for b, u := range us {
			got, err := ref.TotalCurrent(u)
			if err != nil {
				t.Fatal(err)
			}
			if want := sweepTotal(ref, u); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("TotalCurrent[%d] = %v, general sweep %v", b, got, want)
			}
		}
	}
	seq := program()
	wantOut := make([][]float64, len(us))
	wantTot := make([]float64, len(us))
	for b, u := range us {
		out, err := seq.OutputCurrents(u)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := seq.TotalCurrent(u)
		if err != nil {
			t.Fatal(err)
		}
		wantOut[b], wantTot[b] = out, tot
	}
	for k := 1; k <= len(us); k++ {
		gotOut, gotTot, err := program().OutputTotalCurrentBatch(us[:k])
		if err != nil {
			t.Fatal(err)
		}
		for b := range k {
			if math.Float64bits(gotTot[b]) != math.Float64bits(wantTot[b]) {
				t.Fatalf("batch of %d: fused total[%d] = %v, sequential %v", k, b, gotTot[b], wantTot[b])
			}
			for i := range wantOut[b] {
				if math.Float64bits(gotOut[b][i]) != math.Float64bits(wantOut[b][i]) {
					t.Fatalf("batch of %d: fused out[%d][%d] = %v, sequential %v", k, b, i, gotOut[b][i], wantOut[b][i])
				}
			}
		}
	}
}

func TestOutputTotalCurrentBatchMatchesSequential(t *testing.T) {
	w, us := batchTestWeights(t, 9, 17)
	for name, cfg := range map[string]DeviceConfig{
		"ideal":            {GOn: 100e-6, GOff: 0, Vdd: 0.2},
		"default":          DefaultDeviceConfig(),
		"non-ideal":        nonIdealNoNoiseConfig(),
		"read-noise":       readNoiseConfig(),
		"masking-only":     {GOn: 100e-6, GOff: 1e-6, Vdd: 0.2, PowerMasking: true},
		"irdrop-only":      {GOn: 100e-6, GOff: 1e-6, Vdd: 0.2, IRDropAlpha: 0.15},
		"quantized":        {GOn: 100e-6, GOff: 1e-6, Vdd: 0.2, Levels: 8},
		"noise-no-masking": {GOn: 100e-6, GOff: 1e-6, Vdd: 0.2, ReadNoiseStd: 0.05},
	} {
		t.Run(name, func(t *testing.T) {
			checkFusedMatches(t, func() *Crossbar {
				xb, err := Program(w, cfg, rng.New(77))
				if err != nil {
					t.Fatal(err)
				}
				return xb
			}, us)
		})
	}
}

func TestForwardPowerBatchMatchesSequential(t *testing.T) {
	w, us := batchTestWeights(t, 10, 15)
	for _, act := range []nn.Activation{nn.ActLinear, nn.ActSoftmax, nn.ActSigmoid, nn.ActReLU} {
		for name, cfg := range map[string]DeviceConfig{
			"non-ideal":  nonIdealNoNoiseConfig(),
			"read-noise": readNoiseConfig(),
		} {
			t.Run(name+"/"+act.String(), func(t *testing.T) {
				program := func() *Network {
					net := &nn.Network{W: w.Clone(), Act: act}
					hw, err := NewNetwork(net, cfg, rng.New(78))
					if err != nil {
						t.Fatal(err)
					}
					return hw
				}
				seq, fused := program(), program()
				wantY := make([][]float64, len(us))
				wantP := make([]float64, len(us))
				for b, u := range us {
					y, err := seq.Forward(u)
					if err != nil {
						t.Fatal(err)
					}
					p, err := seq.Power(u)
					if err != nil {
						t.Fatal(err)
					}
					wantY[b], wantP[b] = y, p
				}
				gotY, gotP, err := fused.ForwardPowerBatch(us)
				if err != nil {
					t.Fatal(err)
				}
				for b := range us {
					if math.Float64bits(gotP[b]) != math.Float64bits(wantP[b]) {
						t.Fatalf("fused power[%d] = %v, sequential %v", b, gotP[b], wantP[b])
					}
					for i := range wantY[b] {
						if math.Float64bits(gotY[b][i]) != math.Float64bits(wantY[b][i]) {
							t.Fatalf("fused y[%d][%d] = %v, sequential %v", b, i, gotY[b][i], wantY[b][i])
						}
					}
				}
			})
		}
	}
}

// TestOutputTotalCurrentBatchAllocsBounded pins the hot-path contract on
// the fused serving kernel: once the effective-conductance cache is warm,
// a noise-free batch costs a constant number of allocations — the two
// result headers plus the one backing slab — independent of batch size.
func TestOutputTotalCurrentBatchAllocsBounded(t *testing.T) {
	w, us := batchTestWeights(t, 9, 17)
	for name, cfg := range map[string]DeviceConfig{
		"default":   DefaultDeviceConfig(),
		"non-ideal": nonIdealNoNoiseConfig(),
	} {
		t.Run(name, func(t *testing.T) {
			xb, err := Program(w, cfg, rng.New(79))
			if err != nil {
				t.Fatal(err)
			}
			run := func(batch [][]float64) float64 {
				return testing.AllocsPerRun(20, func() {
					if _, _, err := xb.OutputTotalCurrentBatch(batch); err != nil {
						t.Fatal(err)
					}
				})
			}
			run(us) // warm the effective-conductance cache
			small, full := run(us[:2]), run(us)
			if small != full {
				t.Errorf("allocations scale with batch size: %v for 2 inputs, %v for %d",
					small, full, len(us))
			}
			if full > 3 {
				t.Errorf("fused batch costs %v allocations, want at most 3 (outs+totals+slab)", full)
			}
		})
	}
}

func TestNoisyReporting(t *testing.T) {
	w, _ := batchTestWeights(t, 4, 6)
	quiet, err := Program(w, DefaultDeviceConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Noisy() {
		t.Fatal("noise-free array reported noisy")
	}
	loud, err := Program(w, readNoiseConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !loud.Noisy() {
		t.Fatal("read-noise array reported noise-free")
	}
	net := &nn.Network{W: w.Clone(), Act: nn.ActLinear}
	hw, err := NewNetwork(net, readNoiseConfig(), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !hw.Noisy() {
		t.Fatal("network over noisy array must report noisy")
	}
	if _, _, err := hw.ForwardPowerBatch([][]float64{{1, 2}}); err == nil {
		t.Fatal("bad input length must error")
	}
}
