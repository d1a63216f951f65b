package crossbar

import (
	"math"
	"testing"

	"xbarsec/internal/nn"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// batchTestWeights returns a small weight matrix with mixed signs, zeros
// and magnitude spread, plus a batch of inputs: nineteen dense ones, so
// the fused kernel reads them in groups of eight and the prefixes of the
// batch make two full groups and leave every remainder of 0 to 7, with
// an all-zero vector and four one-hot vectors (the basis queries the
// column walk serves) between them, so a group spans walked inputs.
// Dense entries are +0, −0, negative or positive: the sweep skips both
// zeros, the grouped read adds them as ±0 terms. The one-hot nonzeros
// sit at the first, the second, a middle and the last column, valued 1,
// 0.8, 0.37 and −0.5; the negative one turns every zero effective
// conductance into a −0 term, which the general sweep's +0 accumulator
// reads as +0.
func batchTestWeights(t *testing.T, rows, cols int) (*tensor.Matrix, [][]float64) {
	t.Helper()
	src := rng.New(11)
	w := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch src.Intn(4) {
			case 0:
				// leave zero
			default:
				w.Set(i, j, src.Uniform(-2, 2))
			}
		}
	}
	dense := make([][]float64, 19)
	for b := range dense {
		u := make([]float64, cols)
		for j := range u {
			switch src.Intn(4) {
			case 0:
				// leave +0
			case 1:
				u[j] = math.Copysign(0, -1)
			case 2:
				u[j] = -src.Float64()
			default:
				u[j] = src.Float64()
			}
		}
		dense[b] = u
	}
	oneHot := func(j int, v float64) []float64 {
		u := make([]float64, cols)
		u[j] = v
		return u
	}
	return w, [][]float64{
		dense[0], dense[1], make([]float64, cols), dense[2],
		oneHot(0, 1), dense[3], dense[4], oneHot(cols/2, 0.37),
		dense[5], dense[6], dense[7], dense[8],
		oneHot(cols-1, -0.5), dense[9], dense[10], dense[11],
		dense[12], dense[13], oneHot(1, 0.8), dense[14], dense[15],
		dense[16], dense[17], dense[18],
	}
}

// nonIdealNoNoiseConfig enables every deterministic non-ideality:
// quantization, programming noise, stuck faults, IR drop and power
// masking — everything except per-read noise.
func nonIdealNoNoiseConfig() DeviceConfig {
	cfg := DefaultDeviceConfig()
	cfg.Levels = 16
	cfg.ProgramNoiseStd = 0.05
	cfg.StuckFraction = 0.02
	cfg.IRDropAlpha = 0.1
	cfg.PowerMasking = true
	return cfg
}

func readNoiseConfig() DeviceConfig {
	cfg := nonIdealNoNoiseConfig()
	cfg.ReadNoiseStd = 0.03
	return cfg
}

// checkCrossbarBatchMatches runs every batched Crossbar entry point
// against fresh identically-programmed sequential twins and requires
// bit-identical results. program must return a new, identically
// programmed crossbar on every call.
func checkCrossbarBatchMatches(t *testing.T, program func() *Crossbar, us [][]float64) {
	t.Helper()
	seq, bat := program(), program()
	want := make([][]float64, len(us))
	for b, u := range us {
		out, err := seq.Output(u)
		if err != nil {
			t.Fatal(err)
		}
		want[b] = out
	}
	got, err := bat.OutputBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	for b := range us {
		for i := range want[b] {
			if got[b][i] != want[b][i] {
				t.Fatalf("OutputBatch[%d][%d] = %v, sequential %v", b, i, got[b][i], want[b][i])
			}
		}
	}

	seq, bat = program(), program()
	wantI := make([]float64, len(us))
	for b, u := range us {
		iv, err := seq.TotalCurrent(u)
		if err != nil {
			t.Fatal(err)
		}
		wantI[b] = iv
	}
	gotI, err := bat.TotalCurrentBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	for b := range us {
		if gotI[b] != wantI[b] {
			t.Fatalf("TotalCurrentBatch[%d] = %v, sequential %v", b, gotI[b], wantI[b])
		}
	}

	seq, bat = program(), program()
	wantP := make([]float64, len(us))
	for b, u := range us {
		p, err := seq.Power(u)
		if err != nil {
			t.Fatal(err)
		}
		wantP[b] = p
	}
	gotP, err := bat.PowerBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	for b := range us {
		if gotP[b] != wantP[b] {
			t.Fatalf("PowerBatch[%d] = %v, sequential %v", b, gotP[b], wantP[b])
		}
	}
}

func TestCrossbarBatchMatchesSequentialIdeal(t *testing.T) {
	w, us := batchTestWeights(t, 6, 20)
	checkCrossbarBatchMatches(t, func() *Crossbar {
		xb, err := Program(w, DefaultDeviceConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return xb
	}, us)
}

func TestCrossbarBatchMatchesSequentialNonIdeal(t *testing.T) {
	w, us := batchTestWeights(t, 6, 20)
	checkCrossbarBatchMatches(t, func() *Crossbar {
		xb, err := Program(w, nonIdealNoNoiseConfig(), rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return xb
	}, us)
}

func TestCrossbarBatchMatchesSequentialReadNoise(t *testing.T) {
	// With read noise the array is stateful: the batched path must
	// consume the per-read noise stream in exactly the order sequential
	// calls would, so identically-seeded twins must agree bitwise.
	w, us := batchTestWeights(t, 6, 20)
	checkCrossbarBatchMatches(t, func() *Crossbar {
		xb, err := Program(w, readNoiseConfig(), rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return xb
	}, us)
}

func TestCrossbarBatchValidatesUpFront(t *testing.T) {
	w, us := batchTestWeights(t, 4, 10)
	xb, err := Program(w, DefaultDeviceConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{us[0], make([]float64, 3)}
	if _, err := xb.OutputBatch(bad); err == nil {
		t.Fatal("short input must be rejected")
	}
	if _, err := xb.TotalCurrentBatch(bad); err == nil {
		t.Fatal("short input must be rejected")
	}
	empty, err := xb.OutputBatch(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}

func TestNetworkBatchMatchesSequential(t *testing.T) {
	w, us := batchTestWeights(t, 8, 20)
	net, err := nn.NewNetwork(8, 20, nn.ActSoftmax, nn.LossCrossEntropy)
	if err != nil {
		t.Fatal(err)
	}
	net.W = w
	hw, err := NewNetwork(net, DefaultDeviceConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ys, err := hw.ForwardBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := hw.PredictBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	powers, err := hw.PowerBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	for b, u := range us {
		y, err := hw.Forward(u)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if ys[b][i] != y[i] {
				t.Fatalf("ForwardBatch[%d][%d] = %v, sequential %v", b, i, ys[b][i], y[i])
			}
		}
		label, err := hw.Predict(u)
		if err != nil {
			t.Fatal(err)
		}
		if labels[b] != label {
			t.Fatalf("PredictBatch[%d] = %d, sequential %d", b, labels[b], label)
		}
		p, err := hw.Power(u)
		if err != nil {
			t.Fatal(err)
		}
		if powers[b] != p {
			t.Fatalf("PowerBatch[%d] = %v, sequential %v", b, powers[b], p)
		}
	}
}
