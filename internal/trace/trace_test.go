package trace

import (
	"math"
	"testing"
	"testing/quick"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/rng"
	"xbarsec/internal/sidechannel"
	"xbarsec/internal/stats"
	"xbarsec/internal/tensor"
)

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(0); err == nil {
		t.Fatal("0 bits must error")
	}
	if _, err := NewEncoder(17); err == nil {
		t.Fatal("17 bits must error")
	}
	if _, err := NewEncoder(8); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		bits := 1 + src.Intn(12)
		enc, err := NewEncoder(bits)
		if err != nil {
			return false
		}
		u := src.UniformVec(1+src.Intn(20), 0, 1)
		planes := enc.Encode(u)
		if len(planes) != bits {
			return false
		}
		decoded, err := enc.Decode(planes)
		if err != nil {
			return false
		}
		quant := enc.Quantize(u)
		for j := range u {
			if math.Abs(decoded[j]-quant[j]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeClampsAndBounds(t *testing.T) {
	enc, _ := NewEncoder(4)
	q := enc.Quantize([]float64{-0.5, 0, 0.5, 1, 1.5})
	if q[0] != 0 || q[1] != 0 || q[3] != 1 || q[4] != 1 {
		t.Fatalf("clamping broken: %v", q)
	}
	// 4-bit quantization error <= 1/(2*15).
	if math.Abs(q[2]-0.5) > 1.0/30+1e-12 {
		t.Fatalf("quantization error too large: %v", q[2])
	}
}

func TestDecodeValidation(t *testing.T) {
	enc, _ := NewEncoder(2)
	if _, err := enc.Decode([][]float64{{1, 0}}); err == nil {
		t.Fatal("wrong plane count must error")
	}
	if _, err := enc.Decode([][]float64{{1, 0}, {1}}); err == nil {
		t.Fatal("ragged planes must error")
	}
	if _, err := enc.Decode([][]float64{{1, 0}, {0.5, 0}}); err == nil {
		t.Fatal("non-binary plane must error")
	}
}

func buildMeter(t *testing.T, seed int64, m, n int) (sidechannel.PowerMeter, *tensor.Matrix, *crossbar.Crossbar) {
	t.Helper()
	src := rng.New(seed)
	w := tensor.New(m, n)
	d := w.Data()
	for i := range d {
		d[i] = src.Normal(0, 1)
	}
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	xb, err := crossbar.Program(w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sidechannel.MeterFromCrossbar(xb), w, xb
}

func TestNewRecorderValidation(t *testing.T) {
	meter, _, _ := buildMeter(t, 1, 3, 4)
	if _, err := NewRecorder(nil, 8, 0, nil); err == nil {
		t.Fatal("nil meter must error")
	}
	if _, err := NewRecorder(meter, 0, 0, nil); err == nil {
		t.Fatal("bad bits must error")
	}
	if _, err := NewRecorder(meter, 8, -1, nil); err == nil {
		t.Fatal("negative noise must error")
	}
	if _, err := NewRecorder(meter, 8, 0.1, nil); err == nil {
		t.Fatal("noise without src must error")
	}
}

func TestRecordTraceShape(t *testing.T) {
	meter, _, _ := buildMeter(t, 2, 4, 6)
	rec, err := NewRecorder(meter, 6, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Record(rng.New(3).UniformVec(6, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Cycles) != 6 {
		t.Fatalf("cycles = %d", len(tr.Cycles))
	}
	var energy float64
	for _, p := range tr.Cycles {
		if p < 0 {
			t.Fatalf("negative cycle power %v", p)
		}
		energy += p
	}
	if energy <= 0 {
		t.Fatal("energy must be positive for a nonzero input")
	}
	if rec.Queries() != 1 {
		t.Fatal("accounting broken")
	}
	if _, err := rec.Record([]float64{1}); err == nil {
		t.Fatal("wrong input length must error")
	}
}

// The core claim: traces recover column signals with ~N/Bits inferences,
// far fewer than the N basis queries of the static channel.
func TestRecoverColumnSignalsQueryEfficiency(t *testing.T) {
	const n = 24
	meter, w, xb := buildMeter(t, 4, 5, n)
	const bits = 8
	rec, err := NewRecorder(meter, bits, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(24/8) = 3 inferences suffice; use 4 for conditioning.
	src := rng.New(5)
	inputs := tensor.New(4, n)
	for i := 0; i < inputs.Rows(); i++ {
		inputs.SetRow(i, src.UniformVec(n, 0, 1))
	}
	signals, err := rec.RecoverColumnSignals(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Queries() != 4 {
		t.Fatalf("used %d inferences", rec.Queries())
	}
	// Signals must rank columns exactly like the true 1-norms.
	rho, err := stats.Spearman(signals, w.ColAbsSums())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-9 {
		t.Fatalf("trace recovery ranking broken: rho = %v", rho)
	}
	// And calibrate to absolute norms.
	cfg := xb.Config()
	norms := sidechannel.CalibrateColumnNorms(signals, cfg, 5, xb.Scale())
	want := w.ColAbsSums()
	for j := range want {
		if math.Abs(norms[j]-want[j]) > 1e-6 {
			t.Fatalf("column %d: %v, want %v", j, norms[j], want[j])
		}
	}
}

func TestRecoverColumnSignalsValidation(t *testing.T) {
	meter, _, _ := buildMeter(t, 6, 3, 16)
	rec, err := NewRecorder(meter, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RecoverColumnSignals(nil); err == nil {
		t.Fatal("nil inputs must error")
	}
	if _, err := rec.RecoverColumnSignals(tensor.New(2, 5)); err == nil {
		t.Fatal("wrong width must error")
	}
	// 3 inputs x 4 bits = 12 < 16 columns: underdetermined.
	if _, err := rec.RecoverColumnSignals(tensor.New(3, 16)); err == nil {
		t.Fatal("underdetermined system must error")
	}
}

func TestRecoverUnderNoiseDegradesGracefully(t *testing.T) {
	const n = 16
	meter, w, _ := buildMeter(t, 7, 4, n)
	src := rng.New(8)
	rec, err := NewRecorder(meter, 8, 0.05, src.Split("rec"))
	if err != nil {
		t.Fatal(err)
	}
	inputs := tensor.New(12, n) // 96 equations for 16 unknowns
	for i := 0; i < inputs.Rows(); i++ {
		inputs.SetRow(i, src.UniformVec(n, 0, 1))
	}
	signals, err := rec.RecoverColumnSignals(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := stats.Spearman(signals, w.ColAbsSums())
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.8 {
		t.Fatalf("noisy trace recovery rank corr %v too low", rho)
	}
}

// Bit-serial evaluation is functionally exact on quantized inputs:
// Σ_b 2^{-b} W·plane_b == W·quantize(u).
func TestBitSerialFunctionalEquivalence(t *testing.T) {
	meter, w, _ := buildMeter(t, 9, 4, 10)
	_ = meter
	enc, _ := NewEncoder(8)
	src := rng.New(10)
	u := src.UniformVec(10, 0, 1)
	planes := enc.Encode(u)
	levels := float64(int(1)<<enc.Bits - 1)
	acc := make([]float64, 4)
	for b, plane := range planes {
		part := w.MatVec(plane)
		weight := float64(int(1)<<(enc.Bits-1-b)) / levels
		tensor.AxpyInPlace(weight, part, acc)
	}
	want := w.MatVec(enc.Quantize(u))
	for i := range want {
		if math.Abs(acc[i]-want[i]) > 1e-9 {
			t.Fatalf("bit-serial accumulation mismatch at %d: %v vs %v", i, acc[i], want[i])
		}
	}
}
