package crossbar

import (
	"math"
	"testing"
	"testing/quick"

	"xbarsec/internal/nn"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

func idealConfig() DeviceConfig {
	cfg := DefaultDeviceConfig()
	cfg.GOff = 0 // exact Eq. (3)-(6) behavior
	return cfg
}

func randWeights(src *rng.Source, m, n int) *tensor.Matrix {
	w := tensor.New(m, n)
	d := w.Data()
	for i := range d {
		d[i] = src.Normal(0, 1)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*DeviceConfig)
	}{
		{"GOn <= GOff", func(c *DeviceConfig) { c.GOn = c.GOff }},
		{"negative GOff", func(c *DeviceConfig) { c.GOff = -1 }},
		{"zero Vdd", func(c *DeviceConfig) { c.Vdd = 0 }},
		{"negative levels", func(c *DeviceConfig) { c.Levels = -2 }},
		{"negative noise", func(c *DeviceConfig) { c.ReadNoiseStd = -0.1 }},
		{"stuck fraction", func(c *DeviceConfig) { c.StuckFraction = 1.5 }},
		{"ir drop", func(c *DeviceConfig) { c.IRDropAlpha = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultDeviceConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
	if err := DefaultDeviceConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestProgramRejectsEmptyAndNilSrc(t *testing.T) {
	if _, err := Program(nil, idealConfig(), nil); err == nil {
		t.Fatal("nil weights must error")
	}
	cfg := idealConfig()
	cfg.ReadNoiseStd = 0.1
	if _, err := Program(tensor.Identity(2), cfg, nil); err == nil {
		t.Fatal("noisy config with nil src must error")
	}
}

// The core fidelity contract: an ideal crossbar computes exactly Wu.
func TestIdealOutputMatchesMatVec(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		m, n := 2+src.Intn(6), 2+src.Intn(10)
		w := randWeights(src, m, n)
		xb, err := Program(w, idealConfig(), nil)
		if err != nil {
			return false
		}
		u := src.UniformVec(n, 0, 1)
		got, err := xb.Output(u)
		if err != nil {
			return false
		}
		want := w.MatVec(u)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Eq. (5)/(6): with GOff = 0, the column conductance sums are exactly
// scale * column 1-norms of W, and basis queries reveal them.
func TestTotalCurrentRevealsColumnNorms(t *testing.T) {
	src := rng.New(42)
	w := randWeights(src, 5, 8)
	cfg := idealConfig()
	xb, err := Program(w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	norms := w.ColAbsSums()
	for j := 0; j < 8; j++ {
		// Drive input j at full Vdd, ground the rest.
		itotal, err := xb.TotalCurrent(tensor.Basis(8, j, 1))
		if err != nil {
			t.Fatal(err)
		}
		gj := itotal / cfg.Vdd
		wantNorm := gj / xb.Scale()
		if math.Abs(wantNorm-norms[j]) > 1e-9 {
			t.Fatalf("column %d: recovered %v, want %v", j, wantNorm, norms[j])
		}
	}
}

// Power is linear in the input: P(a+b) = P(a) + P(b) in ideal mode.
func TestPowerLinearity(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 3 + src.Intn(8)
		w := randWeights(src, 4, n)
		xb, err := Program(w, idealConfig(), nil)
		if err != nil {
			return false
		}
		a := src.UniformVec(n, 0, 0.5)
		b := src.UniformVec(n, 0, 0.5)
		pa, _ := xb.Power(a)
		pb, _ := xb.Power(b)
		pab, _ := xb.Power(tensor.AddVec(a, b))
		return math.Abs(pab-pa-pb) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnConductanceSumsMatchBasisQueries(t *testing.T) {
	src := rng.New(3)
	w := randWeights(src, 6, 5)
	cfg := DefaultDeviceConfig() // nonzero GOff
	xb, err := Program(w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sums := xb.ColumnConductanceSums()
	for j := range sums {
		itotal, err := xb.TotalCurrent(tensor.Basis(5, j, 1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(itotal/cfg.Vdd-sums[j]) > 1e-12 {
			t.Fatalf("column %d: %v vs %v", j, itotal/cfg.Vdd, sums[j])
		}
	}
}

// With nonzero GOff the offset is 2M·GOff per column, uniform across
// columns — rankings are preserved (the property the attack relies on).
func TestGOffOffsetUniform(t *testing.T) {
	src := rng.New(8)
	w := randWeights(src, 7, 6)
	cfg := DefaultDeviceConfig()
	xb, err := Program(w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sums := xb.ColumnConductanceSums()
	norms := w.ColAbsSums()
	offset := float64(2 * float64(7) * cfg.GOff)
	for j := range sums {
		reconstructed := (sums[j] - offset) / xb.Scale()
		if math.Abs(reconstructed-norms[j]) > 1e-9 {
			t.Fatalf("column %d: %v, want %v", j, reconstructed, norms[j])
		}
	}
}

func TestEffectiveWeightsIdeal(t *testing.T) {
	src := rng.New(5)
	w := randWeights(src, 4, 4)
	xb, err := Program(w, idealConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !xb.EffectiveWeights().Equal(w, 1e-9) {
		t.Fatal("ideal effective weights must equal programmed weights")
	}
}

func TestQuantizationLimitsPrecision(t *testing.T) {
	src := rng.New(6)
	w := randWeights(src, 4, 6)
	cfg := idealConfig()
	cfg.Levels = 4
	xb, err := Program(w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eff := xb.EffectiveWeights()
	if eff.Equal(w, 1e-9) {
		t.Fatal("4-level quantization should distort weights")
	}
	// But the distortion must be bounded by half a step.
	step := (cfg.GOn - cfg.GOff) / float64(cfg.Levels-1) / xb.Scale()
	diff := eff.Clone()
	diff.SubMatrix(w)
	if diff.MaxAbs() > float64(step/2)+1e-9 {
		t.Fatalf("quantization error %v exceeds half step %v", diff.MaxAbs(), step/2)
	}
}

func TestReadNoisePerturbsRepeatedReads(t *testing.T) {
	src := rng.New(7)
	w := randWeights(src, 4, 6)
	cfg := idealConfig()
	cfg.ReadNoiseStd = 0.05
	xb, err := Program(w, cfg, src.Split("xbar"))
	if err != nil {
		t.Fatal(err)
	}
	u := src.UniformVec(6, 0.2, 1)
	a, _ := xb.Power(u)
	b, _ := xb.Power(u)
	if a == b {
		t.Fatal("read noise should vary across reads")
	}
	if math.Abs(a-b)/a > 0.5 {
		t.Fatalf("read noise implausibly large: %v vs %v", a, b)
	}
}

func TestProgramNoiseDeterministicPerSeed(t *testing.T) {
	src1, src2 := rng.New(9), rng.New(9)
	w := randWeights(rng.New(1), 4, 4)
	cfg := idealConfig()
	cfg.ProgramNoiseStd = 0.1
	a, err := Program(w, cfg, src1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Program(w, cfg, src2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.EffectiveWeights().Equal(b.EffectiveWeights(), 0) {
		t.Fatal("programming must be deterministic per seed")
	}
}

func TestStuckFaultsChangeSomeDevices(t *testing.T) {
	src := rng.New(11)
	w := randWeights(src, 10, 10)
	cfg := idealConfig()
	cfg.StuckFraction = 0.2
	faulty, err := Program(w, cfg, src.Split("faulty"))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Program(w, idealConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.EffectiveWeights().Equal(clean.EffectiveWeights(), 1e-12) {
		t.Fatal("20% stuck faults should alter the array")
	}
}

func TestIRDropAttenuatesFarCells(t *testing.T) {
	w := tensor.New(4, 4)
	w.Fill(1)
	cfg := idealConfig()
	cfg.IRDropAlpha = 0.3
	xb, err := Program(w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := []float64{1, 1, 1, 1}
	got, err := xb.Output(u)
	if err != nil {
		t.Fatal(err)
	}
	// Every row's sum is attenuated, and later rows more than earlier.
	ideal := 4.0
	prev := math.Inf(1)
	for i, v := range got {
		if v >= ideal {
			t.Fatalf("row %d not attenuated: %v", i, v)
		}
		if v >= prev {
			t.Fatalf("row %d should be more attenuated than row %d", i, i-1)
		}
		prev = v
	}
}

func TestInputLengthErrors(t *testing.T) {
	xb, err := Program(tensor.Identity(3), idealConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Output([]float64{1}); err == nil {
		t.Fatal("short input must error")
	}
	if _, err := xb.TotalCurrent([]float64{1, 2, 3, 4}); err == nil {
		t.Fatal("long input must error")
	}
}

func TestAllZeroWeights(t *testing.T) {
	xb, err := Program(tensor.New(3, 3), idealConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := xb.Output([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatalf("zero weights must give zero output, got %v", out)
		}
	}
}

func TestNetworkForwardMatchesSoftware(t *testing.T) {
	src := rng.New(21)
	for _, act := range []nn.Activation{nn.ActLinear, nn.ActSoftmax, nn.ActSigmoid, nn.ActReLU} {
		crit := nn.LossMSE
		if act == nn.ActSoftmax {
			crit = nn.LossCrossEntropy
		}
		soft, err := nn.NewNetwork(4, 7, act, crit)
		if err != nil {
			t.Fatal(err)
		}
		soft.InitXavier(src.Split(act.String()))
		hard, err := NewNetwork(soft, idealConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		u := src.UniformVec(7, 0, 1)
		want := soft.Forward(u)
		got, err := hard.Forward(u)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%v: crossbar %v vs software %v", act, got, want)
			}
		}
		pSoft := soft.Predict(u)
		pHard, err := hard.Predict(u)
		if err != nil {
			t.Fatal(err)
		}
		if pSoft != pHard {
			t.Fatalf("%v: prediction mismatch", act)
		}
	}
}

func TestNetworkAccessors(t *testing.T) {
	soft, _ := nn.NewNetwork(3, 5, nn.ActLinear, nn.LossMSE)
	hard, err := NewNetwork(soft, idealConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hard.Inputs() != 5 || hard.Outputs() != 3 {
		t.Fatal("shape accessors")
	}
	if hard.Activation() != nn.ActLinear {
		t.Fatal("activation accessor")
	}
	if hard.Crossbar() == nil {
		t.Fatal("crossbar accessor")
	}
	if _, err := hard.Power([]float64{1, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
}
