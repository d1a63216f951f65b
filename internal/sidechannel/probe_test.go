package sidechannel

import (
	"math"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/rng"
	"xbarsec/internal/stats"
	"xbarsec/internal/tensor"
)

func buildCrossbar(t *testing.T, seed int64, m, n int, cfg crossbar.DeviceConfig) (*crossbar.Crossbar, *tensor.Matrix) {
	t.Helper()
	src := rng.New(seed)
	w := tensor.New(m, n)
	d := w.Data()
	for i := range d {
		d[i] = src.Normal(0, 1)
	}
	xb, err := crossbar.Program(w, cfg, src.Split("xbar"))
	if err != nil {
		t.Fatal(err)
	}
	return xb, w
}

func idealCfg() crossbar.DeviceConfig {
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	return cfg
}

func TestNewProbeValidation(t *testing.T) {
	xb, _ := buildCrossbar(t, 1, 3, 4, idealCfg())
	if _, err := NewProbe(nil, 0, nil); err == nil {
		t.Fatal("nil meter must error")
	}
	if _, err := NewProbe(MeterFromCrossbar(xb), -1, nil); err == nil {
		t.Fatal("negative noise must error")
	}
	if _, err := NewProbe(MeterFromCrossbar(xb), 0.1, nil); err == nil {
		t.Fatal("noise without src must error")
	}
}

func TestExtractColumnSignalsExactRecovery(t *testing.T) {
	cfg := idealCfg()
	xb, w := buildCrossbar(t, 2, 5, 9, cfg)
	probe, err := NewProbe(MeterFromCrossbar(xb), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	signals, err := probe.ExtractColumnSignals(1)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Queries() != 9 {
		t.Fatalf("queries = %d, want 9", probe.Queries())
	}
	norms := CalibrateColumnNorms(signals, cfg, 5, xb.Scale())
	want := w.ColAbsSums()
	for j := range want {
		if math.Abs(norms[j]-want[j]) > 1e-9 {
			t.Fatalf("column %d: %v, want %v", j, norms[j], want[j])
		}
	}
}

// rampMeter reads Σ_j (j+1)·u_j without allocating, so a basis query
// e_j reads j+1 exactly and any entry left set by an earlier read shows.
type rampMeter struct{ n int }

func (m rampMeter) Inputs() int { return m.n }
func (m rampMeter) Power(u []float64) (float64, error) {
	var p float64
	for j, uj := range u {
		p += float64(j+1) * uj
	}
	return p, nil
}

// TestExtractColumnSignalsAllocsFixed pins the extraction's allocations
// to a count independent of the input width: the result and one basis
// vector reused across every read, never a fresh vector per read.
func TestExtractColumnSignalsAllocsFixed(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{16, 784} {
		probe, err := NewProbe(rampMeter{n: n}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		signals, err := probe.ExtractColumnSignals(1)
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range signals {
			if s != float64(j+1) {
				t.Fatalf("N=%d: signal[%d] = %v, want %d (basis entries must be reset)", n, j, s, j+1)
			}
		}
		allocs[n] = testing.AllocsPerRun(10, func() {
			if _, err := probe.ExtractColumnSignals(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[16] != allocs[784] {
		t.Fatalf("allocations grow with N: %v at N=16, %v at N=784", allocs[16], allocs[784])
	}
	if allocs[784] > 2 {
		t.Fatalf("extraction costs %v allocations, want at most 2 (result + basis vector)", allocs[784])
	}
}

func TestExtractWithGOffOffsetPreservesRanking(t *testing.T) {
	cfg := crossbar.DefaultDeviceConfig() // nonzero GOff
	xb, w := buildCrossbar(t, 3, 6, 12, cfg)
	probe, err := NewProbe(MeterFromCrossbar(xb), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	signals, err := probe.ExtractColumnSignals(1)
	if err != nil {
		t.Fatal(err)
	}
	// Raw signals (uncalibrated) must rank columns identically to the
	// true 1-norms: a rank correlation of exactly 1.
	rho, err := stats.Spearman(signals, w.ColAbsSums())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("ranking not preserved: rho = %v", rho)
	}
	// And calibration recovers absolute values.
	norms := CalibrateColumnNorms(signals, cfg, 6, xb.Scale())
	want := w.ColAbsSums()
	for j := range want {
		if math.Abs(norms[j]-want[j]) > 1e-6 {
			t.Fatalf("column %d: %v, want %v", j, norms[j], want[j])
		}
	}
}

func TestMeasurementNoiseAveragingConverges(t *testing.T) {
	cfg := idealCfg()
	xb, _ := buildCrossbar(t, 4, 4, 6, cfg)
	src := rng.New(10)
	noisy, err := NewProbe(MeterFromCrossbar(xb), 0.2, src)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewProbe(MeterFromCrossbar(xb), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := src.UniformVec(6, 0.2, 1)
	truth, err := clean.Measure(u)
	if err != nil {
		t.Fatal(err)
	}
	one, err := noisy.Measure(u)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := noisy.MeasureAveraged(u, 400)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-truth) >= math.Abs(one-truth) {
		t.Skipf("averaging did not improve on this draw (one=%v avg=%v truth=%v)", one, avg, truth)
	}
	if math.Abs(avg-truth)/truth > 0.05 {
		t.Fatalf("400-sample average off by %v%%", 100*math.Abs(avg-truth)/truth)
	}
}

func TestMeasureAveragedValidation(t *testing.T) {
	xb, _ := buildCrossbar(t, 5, 3, 3, idealCfg())
	probe, _ := NewProbe(MeterFromCrossbar(xb), 0, nil)
	if _, err := probe.MeasureAveraged([]float64{1, 0, 0}, 0); err == nil {
		t.Fatal("zero repeat count must error")
	}
	if _, err := probe.Measure([]float64{1}); err == nil {
		t.Fatal("wrong input length must propagate error")
	}
}

func TestQueryCounting(t *testing.T) {
	xb, _ := buildCrossbar(t, 6, 3, 5, idealCfg())
	probe, _ := NewProbe(MeterFromCrossbar(xb), 0, nil)
	u := []float64{1, 0, 0, 0, 0}
	for i := 0; i < 3; i++ {
		if _, err := probe.Measure(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := probe.MeasureAveraged(u, 4); err != nil {
		t.Fatal(err)
	}
	if probe.Queries() != 7 {
		t.Fatalf("queries = %d, want 7", probe.Queries())
	}
	probe.ResetQueries()
	if probe.Queries() != 0 {
		t.Fatal("reset failed")
	}
}

// smoothMeter is a synthetic power landscape over a WxH image, unimodal so
// hill climbing must find the global max.
type smoothMeter struct {
	w, h   int
	peakX  int
	peakY  int
	spread float64
}

func (m smoothMeter) Inputs() int { return m.w * m.h }
func (m smoothMeter) Power(u []float64) (float64, error) {
	// Interpret u as a basis vector; find its index.
	idx := tensor.ArgMax(u)
	x, y := idx%m.w, idx/m.w
	dx, dy := float64(x-m.peakX), float64(y-m.peakY)
	return math.Exp(-(dx*dx + dy*dy) / (2 * m.spread * m.spread)), nil
}

func TestHillClimbFindsPeakOnSmoothMap(t *testing.T) {
	meter := smoothMeter{w: 20, h: 20, peakX: 13, peakY: 6, spread: 6}
	probe, err := NewProbe(meter, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HillClimbMaxSearch(probe, HillClimbConfig{Width: 20, Height: 20, Restarts: 3, MaxSteps: 100}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := 6*20 + 13
	if res.Index != wantIdx {
		t.Fatalf("hill climb found %d, want %d", res.Index, wantIdx)
	}
	if res.Queries >= 400 {
		t.Fatalf("hill climb used %d queries, should beat exhaustive 400", res.Queries)
	}
}

func TestHillClimbValidation(t *testing.T) {
	meter := smoothMeter{w: 4, h: 4, peakX: 0, peakY: 0, spread: 2}
	probe, _ := NewProbe(meter, 0, nil)
	if _, err := HillClimbMaxSearch(probe, HillClimbConfig{Width: 0, Height: 4}, rng.New(1)); err == nil {
		t.Fatal("zero width must error")
	}
	if _, err := HillClimbMaxSearch(probe, HillClimbConfig{Width: 5, Height: 5}, rng.New(1)); err == nil {
		t.Fatal("incompatible geometry must error")
	}
	if _, err := HillClimbMaxSearch(probe, HillClimbConfig{Width: 4, Height: 4}, nil); err == nil {
		t.Fatal("nil src must error")
	}
}

// peakMeter reads Σ_j f(j)·u_j without allocating, where f(j) = w + h
// minus pixel j's Manhattan distance to the peak: a basis query e_j
// reads f(j) exactly, the peak reads w + h, and any entry left set by an
// earlier read shows.
type peakMeter struct{ w, h, px, py int }

func (m peakMeter) Inputs() int { return m.w * m.h }
func (m peakMeter) Power(u []float64) (float64, error) {
	var p float64
	for j, uj := range u {
		dx, dy := j%m.w-m.px, j/m.w-m.py
		p += float64(m.w+m.h-max(dx, -dx)-max(dy, -dy)) * uj
	}
	return p, nil
}

// TestHillClimbAllocsFixed pins the search's allocations to a count
// independent of the input width and the number of queries: one basis
// vector reused across every read, never a fresh vector per read.
func TestHillClimbAllocsFixed(t *testing.T) {
	cfg := HillClimbConfig{Restarts: 3, MaxSteps: 40}
	allocs := map[int]float64{}
	for _, tc := range []struct {
		meter       peakMeter
		seed        int64
		wantQueries int
		wantIdx     int
	}{
		{peakMeter{w: 8, h: 8, px: 2, py: 5}, 1, 36, 5*8 + 2},
		{peakMeter{w: 28, h: 28, px: 9, py: 18}, 2, 81, 18*28 + 9},
	} {
		n := tc.meter.Inputs()
		probe, err := NewProbe(tc.meter, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Width, cfg.Height = tc.meter.w, tc.meter.h
		res, err := HillClimbMaxSearch(probe, cfg, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Queries != tc.wantQueries || res.Index != tc.wantIdx || res.Signal != float64(tc.meter.w+tc.meter.h) {
			t.Fatalf("N=%d: %+v, want the peak %d read as %d in %d queries (basis entries must be reset)",
				n, res, tc.wantIdx, tc.meter.w+tc.meter.h, tc.wantQueries)
		}
		allocs[n] = testing.AllocsPerRun(10, func() {
			if _, err := HillClimbMaxSearch(probe, cfg, rng.New(tc.seed)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[64] != allocs[784] {
		t.Fatalf("allocations grow with N or queries: %v for 36 queries at N=64, %v for 81 at N=784", allocs[64], allocs[784])
	}
}

func TestHillClimbOnCrossbarBeatsQueryBudget(t *testing.T) {
	// Build a crossbar whose column 1-norms form a smooth 2D bump, as the
	// paper observes for MNIST.
	const w, h = 12, 12
	src := rng.New(8)
	wm := tensor.New(4, w*h)
	for j := 0; j < w*h; j++ {
		x, y := j%w, j/w
		dx, dy := float64(x-6), float64(y-6)
		mass := math.Exp(-(dx*dx + dy*dy) / 18)
		for i := 0; i < 4; i++ {
			sign := 1.0
			if src.Bool() {
				sign = -1
			}
			wm.Set(i, j, sign*mass/4)
		}
	}
	xb, err := crossbar.Program(wm, idealCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := NewProbe(MeterFromCrossbar(xb), 0, nil)
	res, err := HillClimbMaxSearch(probe, HillClimbConfig{Width: w, Height: h, Restarts: 4, MaxSteps: 60}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	norms := wm.ColAbsSums()
	best := norms[tensor.ArgMax(norms)]
	if res.Signal < 0.9*best*xb.Scale()*idealCfg().Vdd*idealCfg().Vdd {
		t.Fatalf("hill climb found a poor peak: %v of best-signal", res.Signal)
	}
	if res.Queries >= w*h {
		t.Fatalf("hill climb used %d queries, exhaustive needs %d", res.Queries, w*h)
	}
}

func TestEstimateColumnSignalsLSMatchesBasisQueries(t *testing.T) {
	cfg := idealCfg()
	xb, w := buildCrossbar(t, 31, 5, 10, cfg)
	probe, err := NewProbe(MeterFromCrossbar(xb), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	basis, err := probe.ExtractColumnSignals(1)
	if err != nil {
		t.Fatal(err)
	}
	// Random natural-looking inputs, Q = 2N measurements.
	src := rng.New(5)
	inputs := tensor.New(20, 10)
	for i := 0; i < inputs.Rows(); i++ {
		inputs.SetRow(i, src.UniformVec(10, 0, 1))
	}
	ls, err := probe.EstimateColumnSignalsLS(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range basis {
		if math.Abs(ls[j]-basis[j]) > 1e-9 {
			t.Fatalf("column %d: LS %v vs basis %v", j, ls[j], basis[j])
		}
	}
	// Sanity: both rank columns like the true 1-norms.
	rho, err := stats.Spearman(ls, w.ColAbsSums())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("LS extraction ranking broken: rho=%v", rho)
	}
}

func TestEstimateColumnSignalsLSNoiseRobustness(t *testing.T) {
	cfg := idealCfg()
	xb, w := buildCrossbar(t, 32, 5, 8, cfg)
	src := rng.New(9)
	probe, err := NewProbe(MeterFromCrossbar(xb), 0.05, src.Split("probe"))
	if err != nil {
		t.Fatal(err)
	}
	// Overdetermined system (Q = 12N) averages the noise down.
	inputs := tensor.New(96, 8)
	for i := 0; i < inputs.Rows(); i++ {
		inputs.SetRow(i, src.UniformVec(8, 0, 1))
	}
	ls, err := probe.EstimateColumnSignalsLS(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := stats.Spearman(ls, w.ColAbsSums())
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.8 {
		t.Fatalf("noisy LS extraction rank corr %v too low", rho)
	}
}

func TestEstimateColumnSignalsLSValidation(t *testing.T) {
	xb, _ := buildCrossbar(t, 33, 3, 6, idealCfg())
	probe, _ := NewProbe(MeterFromCrossbar(xb), 0, nil)
	if _, err := probe.EstimateColumnSignalsLS(nil); err == nil {
		t.Fatal("nil inputs must error")
	}
	if _, err := probe.EstimateColumnSignalsLS(tensor.New(3, 6)); err == nil {
		t.Fatal("underdetermined system must error")
	}
	if _, err := probe.EstimateColumnSignalsLS(tensor.New(8, 5)); err == nil {
		t.Fatal("wrong width must error")
	}
}
