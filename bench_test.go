package xbarsec_test

// One benchmark per table and figure of the paper, plus ablations and
// kernel microbenchmarks. The experiment benchmarks run reduced-scale
// sweeps (Options.Scale < 1) so `go test -bench=.` finishes in minutes;
// the shapes they print match the paper's (see EXPERIMENTS.md). Use
// `go run ./cmd/xbarattack -scale 1 all` for paper-sized sweeps.

import (
	"bytes"
	"fmt"
	"testing"

	"xbarsec/api"
	"xbarsec/internal/attack"
	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/experiment"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/service"
	"xbarsec/internal/sidechannel"
	"xbarsec/internal/surrogate"
	"xbarsec/internal/tensor"
)

// benchOpts keeps the macro-benchmarks tractable and pins Workers to 1 so
// the per-figure benchmarks measure the serial baseline; the *Workers
// benchmarks below measure the parallel engine against it. Results are
// bit-identical across worker counts at a fixed seed, so the comparison
// is pure wall-clock.
func benchOpts() experiment.Options {
	return experiment.Options{Seed: 1, Scale: 0.05, Runs: 2, Workers: 1}
}

// withBenchWorkers returns benchOpts at a given worker count.
func withBenchWorkers(w int) experiment.Options {
	o := benchOpts()
	o.Workers = w
	return o
}

// BenchmarkTable1 regenerates Table I (correlation between loss
// sensitivity and power-extracted column 1-norms, 4 configurations).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunTable1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
			b.ReportMetric(res.Rows[0].CorrOfMeanTest, "mnist-linear-corr-of-mean")
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (sensitivity vs 1-norm heatmaps).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunFig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkFig4 regenerates Figure 4 (single-pixel attack strength
// sweeps, 5 methods x 4 configurations).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunFig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// fig5BenchOptions shrinks the Figure 5 sweep to a bench-sized grid.
func fig5BenchOptions() experiment.Fig5Options {
	return experiment.Fig5Options{
		Options:         benchOpts(),
		Queries:         []int{10, 50, 200},
		Lambdas:         []float64{0, 0.004},
		SurrogateEpochs: 20,
	}
}

// BenchmarkFig5 regenerates Figure 5 (surrogate black-box attacks with
// power information: surrogate accuracy, oracle adversarial accuracy, and
// significance-tested improvement — panels a/b/c of each row).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunFig5(fig5BenchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkAblationNoise regenerates ablation A1 (extraction fidelity vs
// measurement noise and device quantization).
func BenchmarkAblationNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunNoiseAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkAblationSearch regenerates ablation A2 (query-efficient
// max-1-norm search vs exhaustive measurement).
func BenchmarkAblationSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunSearchAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkAblationMultiPixel regenerates ablation A3 (multi-pixel attack
// decay with random signs, paper §III).
func BenchmarkAblationMultiPixel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunMultiPixelAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkTable1Workers measures the parallel experiment engine against
// the serial BenchmarkTable1 baseline at several worker counts. On a
// multi-core machine the (config x run) grid of 8 victims scales with
// workers; on one core it degrades gracefully to serial speed.
func BenchmarkTable1Workers(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiment.ResetVictimStore()
				if _, err := experiment.RunTable1(withBenchWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Workers measures the parallel single-pixel sweep (configs
// x per-sample attack evaluations) against the serial BenchmarkFig4.
func BenchmarkFig4Workers(b *testing.B) {
	for _, w := range []int{4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiment.ResetVictimStore()
				if _, err := experiment.RunFig4(withBenchWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- victim store ------------------------------------------------------

// BenchmarkVictimStoreColdFig3 measures Figure 3 with an empty victim
// store each iteration: the full train-and-evaluate pipeline, the
// number every pre-store BENCH entry recorded. (Every experiment
// benchmark above also resets the store per iteration for the same
// comparability.)
func BenchmarkVictimStoreColdFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		if _, err := experiment.RunFig3(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVictimStoreWarmFig3 measures Figure 3 with the victims
// already in the store — the steady state of a process that has run the
// experiment (or any experiment sharing its streams) before, e.g. the
// xbarserve /experiments endpoint replaying a grid at a known seed. The
// cold/warm ratio is the victim-store hit speedup BENCH_4.json records.
func BenchmarkVictimStoreWarmFig3(b *testing.B) {
	experiment.ResetVictimStore()
	if _, err := experiment.RunFig3(benchOpts()); err != nil {
		b.Fatal(err)
	}
	warm := experiment.StoreStats().Trainings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFig3(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := experiment.StoreStats().Trainings - warm; d != 0 {
		b.Fatalf("warm benchmark trained %d victims", d)
	}
}

// crossRunnerSuite runs the three runners that draw on the four shared
// paper configurations (Table I, Figure 3, Figure 4) back to back — the
// sequence a CLI user replays most often. Under the config-rooted victim
// streams every runner derives the same victim for the same config, so
// after the first runner the other two hit the store for every victim.
func crossRunnerSuite(b *testing.B, opts experiment.Options) {
	b.Helper()
	if _, err := experiment.RunFig3(opts); err != nil {
		b.Fatal(err)
	}
	if _, err := experiment.RunTable1(opts); err != nil {
		b.Fatal(err)
	}
	if _, err := experiment.RunFig4(opts); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVictimStoreCrossRunnerCold measures the fig3+table1+fig4
// sequence from an empty store each iteration: four victim trainings
// amortized across three runners (pre-refactor, table1 and fig4 would
// each have retrained their own copies).
func BenchmarkVictimStoreCrossRunnerCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		crossRunnerSuite(b, benchOpts())
	}
}

// BenchmarkVictimStoreCrossRunnerWarm measures the same sequence with
// all four victims already stored. The cold/warm gap is the training
// cost the config-rooted streams dedupe; BENCH_8.json records both.
func BenchmarkVictimStoreCrossRunnerWarm(b *testing.B) {
	experiment.ResetVictimStore()
	crossRunnerSuite(b, benchOpts())
	trained := experiment.StoreStats().Trainings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crossRunnerSuite(b, benchOpts())
	}
	b.StopTimer()
	if d := experiment.StoreStats().Trainings - trained; d != 0 {
		b.Fatalf("warm cross-runner suite trained %d victims", d)
	}
}

// BenchmarkRegistryReplayWarm measures a registry-wide replay — every
// experiment `xbarattack all` runs, in paper order — with the victim
// store already primed by one full pass. This is the steady state of a
// long-lived xbarserve process re-serving the whole paper at a known
// seed; the warm pass must train zero victims.
func BenchmarkRegistryReplayWarm(b *testing.B) {
	opts := experiment.Options{Seed: 1, Scale: 0.01, Runs: 1, Workers: 1}
	runAll := func() {
		for _, name := range experiment.PaperOrder() {
			e, ok := engine.Lookup(name)
			if !ok {
				b.Fatalf("experiment %q not registered", name)
			}
			if _, err := e.Run(opts); err != nil {
				b.Fatalf("%s: %v", name, err)
			}
		}
	}
	experiment.ResetVictimStore()
	runAll()
	trained := experiment.StoreStats().Trainings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll()
	}
	b.StopTimer()
	if d := experiment.StoreStats().Trainings - trained; d != 0 {
		b.Fatalf("warm registry replay trained %d victims", d)
	}
}

// --- durability --------------------------------------------------------

// BenchmarkServiceColdRestart measures the crash-recovery boot path:
// each iteration reopens a state directory left behind by a server that
// journaled and completed one reduced-scale experiment, replays the job
// journal, inventories the artifact spill, and serves the finished
// result from disk without recomputing it. The open/serve/close cycle
// is the cold-start-after-restart number BENCH_7.json records; compare
// against VictimStoreColdFig3-style recompute times to see the spill
// win.
func BenchmarkServiceColdRestart(b *testing.B) {
	cfg := service.Config{
		Seed: 1, Workers: 1,
		StateDir: b.TempDir(), JournalFsync: true,
	}
	spec := service.ExperimentSpec{Name: "ablate-trace", Seed: 1, Scale: 0.01}
	svc, _, err := service.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Launch (not RunExperiment): launched jobs are the journaled ones,
	// so the restart below has a record to replay.
	job, err := svc.LaunchExperiment(spec)
	if err != nil {
		svc.Close()
		b.Fatal(err)
	}
	<-job.Done()
	if _, _, err := job.Snapshot(); err != nil {
		svc.Close()
		b.Fatal(err)
	}
	svc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, rec, err := service.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := svc.RunExperiment(spec)
		if err != nil {
			svc.Close()
			b.Fatal(err)
		}
		if rec.ReplayedJobs != 1 || !res.Cached {
			svc.Close()
			b.Fatalf("restart recomputed: replayed %d job(s), cached=%v", rec.ReplayedJobs, res.Cached)
		}
		svc.Close()
	}
}

// --- kernel microbenchmarks -------------------------------------------

func benchVictim(b *testing.B) (*nn.Network, *crossbar.Network, *dataset.Dataset) {
	b.Helper()
	src := rng.New(1)
	ds, err := dataset.GenerateMNISTLike(src.Split("d"), 200, dataset.DefaultMNISTLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	net, _, err := nn.TrainNew(ds, nn.ActLinear, nn.LossMSE, nn.TrainConfig{
		Epochs: 5, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9, ZeroInit: true,
	}, src.Split("t"))
	if err != nil {
		b.Fatal(err)
	}
	hw, err := crossbar.NewNetwork(net, crossbar.DefaultDeviceConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return net, hw, ds
}

// BenchmarkCrossbarMVM measures one analog matrix-vector multiply on a
// 10x784 crossbar.
func BenchmarkCrossbarMVM(b *testing.B) {
	_, hw, ds := benchVictim(b)
	u := ds.X.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hw.Forward(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossbarPower measures one supply-current measurement.
func BenchmarkCrossbarPower(b *testing.B) {
	_, hw, ds := benchVictim(b)
	u := ds.X.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hw.Power(u); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatch returns a batch of 64 test inputs for the batched kernels.
func benchBatch(b *testing.B, ds *dataset.Dataset) [][]float64 {
	b.Helper()
	us := make([][]float64, 64)
	for i := range us {
		us[i] = ds.X.Row(i % ds.Len())
	}
	return us
}

// BenchmarkCrossbarMVMBatch measures 64 analog MVMs through one batched
// ForwardBatch call; compare ns/op against 64x BenchmarkCrossbarMVM to
// see the amortization of the effective-conductance pass.
func BenchmarkCrossbarMVMBatch(b *testing.B) {
	_, hw, ds := benchVictim(b)
	us := benchBatch(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hw.ForwardBatch(us); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossbarPowerBatch measures 64 supply-current measurements in
// one batched pass.
func BenchmarkCrossbarPowerBatch(b *testing.B) {
	_, hw, ds := benchVictim(b)
	us := benchBatch(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hw.PowerBatch(us); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormExtraction measures a full 784-basis-query column-1-norm
// extraction.
func BenchmarkNormExtraction(b *testing.B) {
	_, hw, _ := benchVictim(b)
	probe, err := sidechannel.NewProbe(sidechannel.MeterFromCrossbar(hw.Crossbar()), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe.ExtractColumnSignals(1); err != nil {
			b.Fatal(err)
		}
	}
}

// fusedMeter reads power the way the service's extraction jobs do: one
// fused ForwardPowerBatch of a one-row batch per reading.
type fusedMeter struct{ hw *crossbar.Network }

func (m fusedMeter) Power(u []float64) (float64, error) {
	_, ps, err := m.hw.ForwardPowerBatch([][]float64{u})
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}

func (m fusedMeter) Inputs() int { return m.hw.Inputs() }

// BenchmarkNormExtractionFused measures the same extraction through the
// serving read path: 784 one-row fused reads instead of the scalar
// TotalCurrent reads of BenchmarkNormExtraction.
func BenchmarkNormExtractionFused(b *testing.B) {
	_, hw, _ := benchVictim(b)
	probe, err := sidechannel.NewProbe(fusedMeter{hw}, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe.ExtractColumnSignals(1); err != nil {
			b.Fatal(err)
		}
	}
}

// denseVictim returns a 10×3072 noise-free array programmed from
// Xavier-initialized weights and 64 CIFAR-like rows: the shape of the
// service's heavy power-measuring batch.
func denseVictim(b *testing.B) (*crossbar.Network, [][]float64) {
	b.Helper()
	src := rng.New(1)
	ds, err := dataset.GenerateCIFARLike(src.Split("d"), 64, dataset.DefaultCIFARLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.NewNetwork(ds.NumClasses, ds.X.Cols(), nn.ActSoftmax, nn.LossCrossEntropy)
	if err != nil {
		b.Fatal(err)
	}
	net.InitXavier(src.Split("w"))
	hw, err := crossbar.NewNetwork(net, crossbar.DefaultDeviceConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	us := make([][]float64, ds.Len())
	for i := range us {
		us[i] = ds.X.Row(i)
	}
	return hw, us
}

// BenchmarkCrossbarPowerFusedDense measures the serving kernel on the
// heavy session batch: 64 dense CIFAR-like rows through one fused
// ForwardPowerBatch on a 10×3072 array.
func BenchmarkCrossbarPowerFusedDense(b *testing.B) {
	hw, us := denseVictim(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hw.ForwardPowerBatch(us); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossbarPowerFusedRemainder measures the serving kernel on
// the dense batches that do not fill a group: one to seven CIFAR-like
// rows through one fused ForwardPowerBatch on the 10×3072 array, the
// sizes a batch leaves after its last full group.
func BenchmarkCrossbarPowerFusedRemainder(b *testing.B) {
	hw, us := denseVictim(b)
	for n := 1; n <= 7; n++ {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := hw.ForwardPowerBatch(us[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadF64Rows measures decoding the heavy session batch's
// binary body, 64 CIFAR-like rows of 3072 values (1.5 MB), as the server
// reads it.
func BenchmarkReadF64Rows(b *testing.B) {
	_, us := denseVictim(b)
	body, err := api.AppendF64Rows(nil, us)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := api.ReadF64Rows(bytes.NewReader(body), len(us[0]), len(us)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFGSM measures one FGSM example generation on a 784-dim input.
func BenchmarkFGSM(b *testing.B) {
	net, _, ds := benchVictim(b)
	oh := ds.OneHot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.FGSM(net, ds.X.Row(i%ds.Len()), oh.Row(i%ds.Len()), 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurrogateTrain measures surrogate training (50 queries, power
// loss enabled) — the inner loop of the Figure 5 sweep.
func BenchmarkSurrogateTrain(b *testing.B) {
	net, hw, ds := benchVictim(b)
	_ = net
	orc, err := oracle.New(hw, oracle.Config{Mode: oracle.RawOutput, MeasurePower: true})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := oracle.Collect(orc, ds, 50, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	cfg := surrogate.DefaultConfig()
	cfg.Lambda = 0.004
	cfg.Epochs = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surrogate.Train(qs, cfg, rng.New(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurrogateTrainCampaign measures surrogate training at the
// shape of one service campaign with the power term on: 200 queries of
// 784 inputs, the default 40 epochs, λ = 0.004.
func BenchmarkSurrogateTrainCampaign(b *testing.B) {
	_, hw, ds := benchVictim(b)
	orc, err := oracle.New(hw, oracle.Config{Mode: oracle.RawOutput, MeasurePower: true})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := oracle.Collect(orc, ds, 200, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	cfg := surrogate.DefaultConfig()
	cfg.Lambda = 0.004
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surrogate.Train(qs, cfg, rng.New(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGemmTB measures the batched forward kernel at the training
// shape (32-sample mini-batch x 3072 inputs by 10 outputs).
func BenchmarkGemmTB(b *testing.B) {
	src := rng.New(1)
	u := tensor.New(32, 3072)
	w := tensor.New(10, 3072)
	s := tensor.New(32, 10)
	for _, m := range []*tensor.Matrix{u, w} {
		d := m.Data()
		for i := range d {
			d[i] = src.Uniform(-1, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmTB(s, u, w)
	}
}

// BenchmarkGemmTA measures the batch-gradient contraction kernel at the
// training shape (32 deltas x 10 outputs against 32 x 3072 inputs).
func BenchmarkGemmTA(b *testing.B) {
	src := rng.New(2)
	d := tensor.New(32, 10)
	u := tensor.New(32, 3072)
	g := tensor.New(10, 3072)
	for _, m := range []*tensor.Matrix{d, u} {
		dd := m.Data()
		for i := range dd {
			dd[i] = src.Uniform(-1, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmTA(g, d, u)
	}
}

// BenchmarkGemmTAFast measures the fast backend on the BenchmarkGemmTA
// shape — the reference-vs-fast pair BENCH_9.json tracks.
func BenchmarkGemmTAFast(b *testing.B) {
	src := rng.New(2)
	fast := tensor.NewFast(1)
	d := tensor.New(32, 10)
	u := tensor.New(32, 3072)
	g := tensor.New(10, 3072)
	for _, m := range []*tensor.Matrix{d, u} {
		dd := m.Data()
		for i := range dd {
			dd[i] = src.Uniform(-1, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fast.GemmTA(g, d, u)
	}
}

// BenchmarkGemmTBFast measures the fast backend on the BenchmarkGemmTB
// shape — the reference-vs-fast pair BENCH_9.json tracks.
func BenchmarkGemmTBFast(b *testing.B) {
	src := rng.New(1)
	fast := tensor.NewFast(1)
	u := tensor.New(32, 3072)
	w := tensor.New(10, 3072)
	s := tensor.New(32, 10)
	for _, m := range []*tensor.Matrix{u, w} {
		d := m.Data()
		for i := range d {
			d[i] = src.Uniform(-1, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fast.GemmTB(s, u, w)
	}
}

// --- GEMM backend sweep ------------------------------------------------

// sweepBackend pairs a backend with its BENCH label.
type sweepBackend struct {
	name string
	be   tensor.Backend
}

func sweepBackends() []sweepBackend {
	return []sweepBackend{
		{"reference", tensor.Reference()},
		{"fast", tensor.NewFast(1)},
	}
}

// BenchmarkGemmSweep sweeps the three training kernels over weight
// aspect ratios (tall / wide / square) and batch sizes 1–256 under both
// backends. Shapes follow the single-layer training loop: weights are
// out x in, activations batch x in, deltas batch x out; GemmTB is the
// batched forward, GemmTA the gradient contraction, Gemm the
// input-gradient product.
func BenchmarkGemmSweep(b *testing.B) {
	shapes := []struct {
		name    string
		out, in int
	}{
		{"tall", 16, 3072},
		{"wide", 3072, 16},
		{"square", 256, 256},
	}
	fill := func(seed int64, ms ...*tensor.Matrix) {
		src := rng.New(seed)
		for _, m := range ms {
			d := m.Data()
			for i := range d {
				d[i] = src.Uniform(-1, 1)
			}
		}
	}
	for _, bk := range sweepBackends() {
		for _, sh := range shapes {
			for _, batch := range []int{1, 32, 256} {
				u := tensor.New(batch, sh.in)
				w := tensor.New(sh.out, sh.in)
				d := tensor.New(batch, sh.out)
				fill(int64(batch), u, w, d)
				s := tensor.New(batch, sh.out)
				g := tensor.New(sh.out, sh.in)
				x := tensor.New(batch, sh.in)
				prefix := fmt.Sprintf("%s/batch_%d/%s", sh.name, batch, bk.name)
				b.Run("TB/"+prefix, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						bk.be.GemmTB(s, u, w)
					}
				})
				b.Run("TA/"+prefix, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						bk.be.GemmTA(g, d, u)
					}
				})
				b.Run("MM/"+prefix, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						bk.be.Gemm(x, d, w)
					}
				})
			}
		}
	}
}

// BenchmarkTable1Fast is BenchmarkTable1 with the fast tensor backend
// active at one worker — the single-core Table I wall-clock the fast
// backend is accountable for (BENCH_9.json pairs it with Table1).
func BenchmarkTable1Fast(b *testing.B) {
	prev := tensor.Use(tensor.NewFast(1))
	defer tensor.Use(prev)
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		if _, err := experiment.RunTable1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBatchQPS measures the batched oracle serving path (64
// queries per ForwardBatch call) under each backend and reports
// queries/s — the serving-throughput figure BENCH_9.json records.
func BenchmarkServeBatchQPS(b *testing.B) {
	for _, bk := range sweepBackends() {
		b.Run(bk.name, func(b *testing.B) {
			prev := tensor.Use(bk.be)
			defer tensor.Use(prev)
			_, hw, ds := benchVictim(b)
			us := benchBatch(b, ds)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hw.ForwardBatch(us); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(us)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkTrainEpoch measures one epoch of batched single-layer SGD on
// 200 MNIST-like samples — the inner loop of every victim build.
func BenchmarkTrainEpoch(b *testing.B) {
	src := rng.New(3)
	ds, err := dataset.GenerateMNISTLike(src.Split("d"), 200, dataset.DefaultMNISTLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := nn.TrainConfig{Epochs: 1, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9, ZeroInit: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := nn.TrainNew(ds, nn.ActSoftmax, nn.LossCrossEntropy, cfg, src.Split("t")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMNISTGeneration measures synthetic digit rendering throughput.
func BenchmarkMNISTGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateMNISTLike(rng.New(int64(i)), 100, dataset.DefaultMNISTLikeConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCIFARGeneration measures synthetic texture rendering
// throughput.
func BenchmarkCIFARGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateCIFARLike(rng.New(int64(i)), 50, dataset.DefaultCIFARLikeConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDepth regenerates extension A4 (power-channel signal
// vs network depth — the paper's multi-layer future-work direction).
func BenchmarkAblationDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunDepthAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkAblationMasking regenerates extension A5 (dummy-row power
// masking countermeasure).
func BenchmarkAblationMasking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunMaskingAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkAblationTrace regenerates extension A6 (bit-serial trace
// extraction vs the paper's static channel).
func BenchmarkAblationTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.ResetVictimStore()
		res, err := experiment.RunTraceAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}
