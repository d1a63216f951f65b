package crossbar

import (
	"math"
	"testing"

	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// This file pins the vectorized read-noise path to the original
// per-device scalar semantics by replaying the noise stream independently:
// the reference below reconstructs the programmed conductances and draws
// from the same "read-noise" child stream in the order the pre-refactor
// readConductance loop consumed it — G+ then G- per device, devices in
// row-major order, one extra pass for the masking dummy row. Every value
// must match bit for bit, across consecutive calls (the stream persists
// between reads).

// noisyReference mirrors Program (ideal devices, read noise + IR drop +
// masking only) and exposes raw per-read evaluation against a replayed
// stream.
type noisyReference struct {
	gp, gm *tensor.Matrix
	mask   []float64
	cfg    DeviceConfig
	reads  *rng.Source
}

func newNoisyReference(t *testing.T, w *tensor.Matrix, cfg DeviceConfig, seed int64) *noisyReference {
	t.Helper()
	maxAbs := w.MaxAbs()
	if maxAbs == 0 {
		maxAbs = 1
	}
	scale := (cfg.GOn - cfg.GOff) / maxAbs
	m, n := w.Rows(), w.Cols()
	ref := &noisyReference{gp: tensor.New(m, n), gm: tensor.New(m, n), cfg: cfg}
	for i := 0; i < m; i++ {
		for j, wij := range w.Row(i) {
			on := cfg.GOff + float64(math.Abs(wij)*scale)
			if on > cfg.GOn {
				on = cfg.GOn
			}
			if wij >= 0 {
				ref.gp.Set(i, j, on)
				ref.gm.Set(i, j, cfg.GOff)
			} else {
				ref.gp.Set(i, j, cfg.GOff)
				ref.gm.Set(i, j, on)
			}
		}
	}
	if cfg.PowerMasking {
		sums := make([]float64, n)
		var maxSum float64
		for i := 0; i < m; i++ {
			for j := range sums {
				sums[j] += ref.gp.At(i, j) + ref.gm.At(i, j)
			}
		}
		for _, s := range sums {
			if s > maxSum {
				maxSum = s
			}
		}
		ref.mask = make([]float64, n)
		for j, s := range sums {
			ref.mask[j] = maxSum - s
		}
	}
	// Program's stream layout: the read stream is the "read-noise" child.
	ref.reads = rng.New(seed).Split("read-noise")
	return ref
}

// read applies IR drop, one noise draw, and the clamp — the pre-refactor
// readConductance, consuming ref.reads.
func (ref *noisyReference) read(g float64, i, j int) float64 {
	if ref.cfg.IRDropAlpha > 0 {
		g *= 1 - ref.cfg.IRDropAlpha*float64(i+j)/float64(ref.gp.Rows()+ref.gp.Cols())
	}
	g *= 1 + ref.reads.Normal(0, ref.cfg.ReadNoiseStd)
	if g < 0 {
		g = 0
	}
	return g
}

func (ref *noisyReference) outputCurrents(u []float64) []float64 {
	m := ref.gp.Rows()
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		var s float64
		for j, uj := range u {
			gp := ref.read(ref.gp.At(i, j), i, j)
			gm := ref.read(ref.gm.At(i, j), i, j)
			s += float64((gp - gm) * uj * ref.cfg.Vdd)
		}
		out[i] = s
	}
	return out
}

func (ref *noisyReference) totalCurrent(u []float64) float64 {
	m := ref.gp.Rows()
	var total float64
	for i := 0; i < m; i++ {
		for j, uj := range u {
			gp := ref.read(ref.gp.At(i, j), i, j)
			gm := ref.read(ref.gm.At(i, j), i, j)
			total += float64((gp + gm) * uj * ref.cfg.Vdd)
		}
	}
	if ref.mask != nil {
		for j, uj := range u {
			total += float64(ref.read(ref.mask[j], m, j) * uj * ref.cfg.Vdd)
		}
	}
	return total
}

func TestNoisyReadsMatchScalarStreamOrder(t *testing.T) {
	w, err := tensor.NewFromRows([][]float64{
		{0.5, -1.25, 0, 2.0, -0.75},
		{-0.1, 0.9, 1.5, -2.0, 0.3},
		{1.0, 0, -0.4, 0.8, -1.6},
		{0.25, -0.5, 0.75, -1.0, 1.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []DeviceConfig{
		{GOn: 100e-6, GOff: 1e-6, Vdd: 0.2, ReadNoiseStd: 0.05},
		{GOn: 100e-6, GOff: 1e-6, Vdd: 0.2, ReadNoiseStd: 0.08, IRDropAlpha: 0.1, PowerMasking: true},
	} {
		const seed = 99
		xb, err := Program(w, cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref := newNoisyReference(t, w, cfg, seed)
		u := []float64{0.2, 0, 1, 0.7, 0.4}
		// Interleave call types so cross-call stream continuity is pinned.
		for call := 0; call < 3; call++ {
			got, err := xb.OutputCurrents(u)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.outputCurrents(u)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("call %d: output %d: %v vs %v", call, i, got[i], want[i])
				}
			}
			gotT, err := xb.TotalCurrent(u)
			if err != nil {
				t.Fatal(err)
			}
			if wantT := ref.totalCurrent(u); math.Float64bits(gotT) != math.Float64bits(wantT) {
				t.Fatalf("call %d: total current %v vs %v", call, gotT, wantT)
			}
		}
	}
}

// TestOutputCurrentsAllocationFree pins the allocation budget of the hot
// read kernels: one output slice per call on the noise-free path, and no
// per-device allocations on the noisy path after its caches warm up.
func TestOutputCurrentsAllocationFree(t *testing.T) {
	w := tensor.Identity(8)
	u := make([]float64, 8)
	for j := range u {
		u[j] = 0.5
	}
	ideal, err := Program(w, DefaultDeviceConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ideal.OutputCurrents(u); err != nil {
		t.Fatal(err) // warm the effective-conductance cache
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ideal.OutputCurrents(u); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("noise-free OutputCurrents allocates %v per call, want <= 1 (the result)", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ideal.TotalCurrent(u); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("noise-free TotalCurrent allocates %v per call, want 0", n)
	}

	cfg := DefaultDeviceConfig()
	cfg.ReadNoiseStd = 0.05
	noisy, err := Program(w, cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noisy.OutputCurrents(u); err != nil {
		t.Fatal(err) // warm the IR cache and noise buffer
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := noisy.OutputCurrents(u); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("noisy OutputCurrents allocates %v per call, want <= 1 (the result)", n)
	}
}
