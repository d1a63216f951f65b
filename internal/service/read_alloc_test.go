package service

import (
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/nn"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// TestVictimReadAllocsMatchKernel pins the hot-path contract on the
// serving read: in steady state (the array's effective-conductance cache
// warm) a read through a registered victim allocates exactly what the
// bare batched kernel allocates, for the fused and the forward read
// alike — the read guard and the length check add nothing.
func TestVictimReadAllocsMatchKernel(t *testing.T) {
	hw, v, src := allocTestVictim(t)
	us := make([][]float64, 8)
	for i := range us {
		us[i] = src.UniformVec(9, 0, 1)
	}
	h := victimHW{v: v}
	fused := func(fw func([][]float64) ([][]float64, []float64, error)) func() {
		return func() {
			ys, ps, err := fw(us)
			if err != nil || len(ys) != len(us) || len(ps) != len(us) {
				t.Fatalf("fused read: %d outputs, %d powers, err %v", len(ys), len(ps), err)
			}
		}
	}
	forward := func(fw func([][]float64) ([][]float64, error)) func() {
		return func() {
			ys, err := fw(us)
			if err != nil || len(ys) != len(us) {
				t.Fatalf("forward read: %d outputs, err %v", len(ys), err)
			}
		}
	}
	for _, tc := range []struct {
		name         string
		kernel, read func()
	}{
		{"fused", fused(hw.ForwardPowerBatch), fused(h.ForwardPowerBatch)},
		{"forward", forward(hw.ForwardBatch), forward(h.ForwardBatch)},
	} {
		tc.read() // warm the effective-conductance cache
		kernel := testing.AllocsPerRun(20, tc.kernel)
		read := testing.AllocsPerRun(20, tc.read)
		if read != kernel {
			t.Errorf("%s read through the victim allocates %v per run, the bare kernel %v", tc.name, read, kernel)
		}
		t.Logf("%s: %v allocs per read, kernel %v", tc.name, read, kernel)
	}
}

// allocTestVictim registers a noise-free 5 x 9 victim with a test
// service and returns its array, the victim and the stream that drew
// its weights.
func allocTestVictim(t *testing.T) (*crossbar.Network, *Victim, *rng.Source) {
	t.Helper()
	src := rng.New(33)
	w := tensor.New(5, 9)
	for i := 0; i < 5; i++ {
		for j := 0; j < 9; j++ {
			w.Set(i, j, src.Uniform(-1, 1))
		}
	}
	net := &nn.Network{W: w, Act: nn.ActLinear}
	hw, err := crossbar.NewNetwork(net, crossbar.DefaultDeviceConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVictim("alloc", net, hw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	newTestService(t, Config{Seed: 33}, v)
	return hw, v, src
}

// TestProbeReadAllocsMatchKernel pins an extraction's probe read: a read
// through probeMeter allocates exactly what the bare one-row fused read
// allocates, for a basis input (the probe's) and a dense one, so the
// meter's one-row batch must not escape to the heap.
func TestProbeReadAllocsMatchKernel(t *testing.T) {
	hw, v, src := allocTestVictim(t)
	basis := make([]float64, 9)
	basis[4] = 1
	m := probeMeter{h: victimHW{v: v}}
	for name, u := range map[string][]float64{"basis": basis, "dense": src.UniformVec(9, 0, 1)} {
		one := [][]float64{u}
		if _, err := m.Power(u); err != nil { // warm the effective-conductance cache
			t.Fatal(err)
		}
		kernel := testing.AllocsPerRun(20, func() {
			if _, _, err := hw.ForwardPowerBatch(one); err != nil {
				t.Fatal(err)
			}
		})
		read := testing.AllocsPerRun(20, func() {
			if _, err := m.Power(u); err != nil {
				t.Fatal(err)
			}
		})
		if read != kernel {
			t.Errorf("%s probe read allocates %v per read, the bare one-row kernel %v", name, read, kernel)
		}
		t.Logf("%s: %v allocs per probe read, kernel %v", name, read, kernel)
	}
}
