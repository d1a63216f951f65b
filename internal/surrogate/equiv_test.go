package surrogate

import (
	"fmt"
	"math"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// referenceTrain is the per-sample surrogate SGD loop exactly as shipped
// before the batched rewrite (surrogate.go @ PR 1), minus input
// validation (the caller validates).
func referenceTrain(qs *oracle.QuerySet, cfg Config, src *rng.Source) *Model {
	usePower := cfg.Lambda > 0 && qs.P != nil
	q, n, m := qs.Len(), qs.U.Cols(), qs.Y.Cols()
	net, err := nn.NewNetwork(m, n, nn.ActLinear, nn.LossMSE)
	if err != nil {
		panic(err)
	}
	net.InitXavier(src.Split("init"))
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	sgd := src.Split("sgd")
	velocity := tensor.New(m, n)
	grad := tensor.New(m, n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := sgd.Perm(q)
		for start := 0; start < q; start += batch {
			end := start + batch
			if end > q {
				end = q
			}
			grad.Fill(0)
			var colNorms []float64
			if usePower {
				colNorms = net.W.ColAbsSums()
			}
			for _, idx := range perm[start:end] {
				u := qs.U.Row(idx)
				y := qs.Y.Row(idx)
				s := net.W.MatVec(u)
				for i := range s {
					d := 2 * (s[i] - y[i]) / float64(m)
					if d == 0 {
						continue
					}
					row := grad.Row(i)
					for j, uj := range u {
						row[j] += d * uj
					}
				}
				if usePower {
					e := tensor.Dot(u, colNorms) - qs.P[idx]
					coeff := cfg.Lambda * 2 * e
					for i := 0; i < m; i++ {
						wrow := net.W.Row(i)
						grow := grad.Row(i)
						for j, uj := range u {
							if uj == 0 {
								continue
							}
							switch {
							case wrow[j] > 0:
								grow[j] += coeff * uj
							case wrow[j] < 0:
								grow[j] -= coeff * uj
							}
						}
					}
				}
			}
			scale := 1 / float64(end-start)
			velocity.Scale(cfg.Momentum)
			velocity.AddScaled(-cfg.LearningRate*scale, grad)
			net.W.AddMatrix(velocity)
		}
	}
	return &Model{Net: net}
}

// equivQuerySet builds a power-annotated query set in the given
// disclosure mode from a small trained victim on an ideal crossbar.
func equivQuerySet(t *testing.T, queries int, mode oracle.Mode) *oracle.QuerySet {
	t.Helper()
	src := rng.New(31)
	ds, err := dataset.GenerateMNISTLike(src.Split("data"), 90, dataset.DefaultMNISTLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	victim, _, err := nn.TrainNew(ds, nn.ActLinear, nn.LossMSE, nn.TrainConfig{
		Epochs: 3, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9, ZeroInit: true,
	}, src.Split("train"))
	if err != nil {
		t.Fatal(err)
	}
	hw, err := crossbar.NewNetwork(victim, crossbar.DefaultDeviceConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.New(hw, oracle.Config{Mode: mode, MeasurePower: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := oracle.Collect(orc, ds, queries, src.Split("collect"))
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// directQuerySet builds a query set without an oracle: 50 queries of 37
// inputs (about a fifth of them zero) with 12 target outputs and positive
// power readings. Neither width is a multiple of four, and the forward
// operand [Wᵀ | ‖W_:,j‖₁] is 13 columns wide, so the training step runs
// the exact kernels' lane tails and a second 12-column panel.
func directQuerySet() *oracle.QuerySet {
	src := rng.New(37)
	const q, n, m = 50, 37, 12
	qs := &oracle.QuerySet{U: tensor.New(q, n), Y: tensor.New(q, m), P: make([]float64, q)}
	u, y := qs.U.Data(), qs.Y.Data()
	for i := range u {
		if src.Float64() >= 0.2 {
			u[i] = src.Float64()
		}
	}
	for i := range y {
		y[i] = src.Uniform(-1, 1)
	}
	for i := range qs.P {
		qs.P[i] = src.Uniform(0, 20)
	}
	return qs
}

// TestTrainMatchesPerSampleReference pins the batched surrogate trainer,
// including the exact forward and power-gradient kernels, to the old
// per-sample loop, bit for bit. Over 50 queries the batch sizes run the
// gradient sweep's four-sample groups and its single-sample tail, and the
// forward's four-row groups and their tails, both in full mini-batches
// and in remainder ones (batch 7: 7 × 7 + 1; batch 32: 32 + 18), with and
// without the power loss, on raw-output and label-only query sets and on
// directQuerySet's odd widths. Under a non-bit-exact tensor backend
// (-tensor.fast) the pin relaxes to a tight relative tolerance, as in the
// nn equivalence suite. Every SGD step adds that backend's reassociation
// error again, so the tolerance grows with the number of steps: 1e-8 at
// batch 32 (8 steps), 25 times that at batch 1 (200 steps).
func TestTrainMatchesPerSampleReference(t *testing.T) {
	const relTolPer8Steps = 1e-8
	exact := tensor.Active().BitExact()
	sets := []struct {
		name string
		qs   *oracle.QuerySet
	}{
		{oracle.RawOutput.String(), equivQuerySet(t, 50, oracle.RawOutput)},
		{oracle.LabelOnly.String(), equivQuerySet(t, 50, oracle.LabelOnly)},
		{"direct-37x12", directQuerySet()},
	}
	for _, set := range sets {
		qs := set.qs
		for _, lambda := range []float64{0, 0.004} {
			for _, batch := range []int{1, 2, 3, 4, 5, 7, 32} {
				t.Run(fmt.Sprintf("%s/lambda=%v/batch=%d", set.name, lambda, batch), func(t *testing.T) {
					cfg := Config{Lambda: lambda, Epochs: 4, BatchSize: batch, LearningRate: 0.05, Momentum: 0.9}
					want := referenceTrain(qs, cfg, rng.New(77))
					got, err := Train(qs, cfg, rng.New(77))
					if err != nil {
						t.Fatal(err)
					}
					steps := cfg.Epochs * ((qs.Len() + batch - 1) / batch)
					relTol := relTolPer8Steps * float64(steps) / 8
					gd, wd := got.Net.W.Data(), want.Net.W.Data()
					for i := range gd {
						if exact {
							if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
								t.Fatalf("weight %d: %v vs %v", i, gd[i], wd[i])
							}
							continue
						}
						if d := math.Abs(gd[i] - wd[i]); d > relTol*math.Abs(wd[i])+relTol*relTol {
							t.Fatalf("weight %d off by %g under %s backend: %v vs %v",
								i, d, tensor.ActiveName(), gd[i], wd[i])
						}
					}
				})
			}
		}
	}
}

// TestStepAllocationFree pins the steady-state training step: once the
// workspace exists, a full mini-batch step and a remainder step allocate
// nothing, with and without the power term.
func TestStepAllocationFree(t *testing.T) {
	qs := equivQuerySet(t, 50, oracle.RawOutput)
	const batch = 32
	q, n, m := qs.Len(), qs.U.Cols(), qs.Y.Cols()
	for _, lambda := range []float64{0, 0.004} {
		cfg := Config{Lambda: lambda, Epochs: 1, BatchSize: batch, LearningRate: 0.05, Momentum: 0.9}
		usePower := lambda > 0
		net, err := nn.NewNetwork(m, n, nn.ActLinear, nn.LossMSE)
		if err != nil {
			t.Fatal(err)
		}
		net.InitXavier(rng.New(5))
		ws := newTrainWorkspace(batch, q, n, m, usePower)
		grad := tensor.New(m, n)
		perm := rng.New(6).Perm(q)
		allocs := testing.AllocsPerRun(10, func() {
			ws.step(net, qs, cfg, perm[:batch], ws.views(batch), grad, usePower)
			ws.step(net, qs, cfg, perm[batch:], ws.views(q-batch), grad, usePower)
		})
		if allocs != 0 {
			t.Fatalf("lambda=%v: a full and a remainder step allocate %v times, want 0", lambda, allocs)
		}
	}
}
