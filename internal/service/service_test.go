package service

import (
	"errors"
	"math"
	"sync"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/sidechannel"
)

// buildTestVictim trains a small 10x10-image victim on an ideal crossbar
// — the fast fixture every service test shares. Deterministic per seed.
func buildTestVictim(t testing.TB, name string, seed int64) *Victim {
	t.Helper()
	src := rng.New(seed)
	gen := func(label string, n int) *dataset.Dataset {
		ds, err := dataset.GenerateMNISTLike(src.Split(label), n, dataset.MNISTLikeConfig{
			Size: 10, StrokeWidth: 0.06, Jitter: 0.4, PixelNoise: 0.02,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	train, test := gen("train", 120), gen("test", 60)
	net, _, err := nn.TrainNew(train, nn.ActLinear, nn.LossMSE, nn.TrainConfig{
		Epochs: 8, BatchSize: 16, LearningRate: 0.1, Momentum: 0.9, ZeroInit: true,
	}, src.Split("fit"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVictim(name, net, hw, train, test)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func newTestService(t testing.TB, cfg Config, victims ...*Victim) *Service {
	t.Helper()
	s := New(cfg)
	for _, v := range victims {
		if err := s.Register(v); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(s.Close)
	return s
}

func TestRegistryLifecycle(t *testing.T) {
	v := buildTestVictim(t, "m", 1)
	s := newTestService(t, Config{Seed: 1}, v)
	if _, err := s.Victim("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Victim("nope"); !errors.Is(err, ErrVictimUnknown) {
		t.Fatalf("want ErrVictimUnknown, got %v", err)
	}
	dup := buildTestVictim(t, "m", 2)
	if err := s.Register(dup); !errors.Is(err, ErrVictimExists) {
		t.Fatalf("want ErrVictimExists, got %v", err)
	}
	if vs := s.Stats().Victims; len(vs) != 1 || vs[0].Name != "m" {
		t.Fatalf("victims = %+v", vs)
	}
	if err := s.Register(v); err == nil {
		t.Fatal("re-registering an attached victim must fail")
	}
}

// TestSessionServingBitIdentical pins the whole session path — forward,
// raw outputs, fused power — to a reference oracle reading the same
// array directly, with no session, guard or counters in between.
func TestSessionServingBitIdentical(t *testing.T) {
	v := buildTestVictim(t, "m", 3)
	s := newTestService(t, Config{Seed: 3}, v)
	sess, err := s.OpenSession("m", SessionConfig{Mode: oracle.RawOutput, MeasurePower: true, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.New(v.hw, oracle.Config{Mode: oracle.RawOutput, MeasurePower: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.test.Len(); i++ {
		u := v.test.X.Row(i)
		got, err := sess.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if got.Label != want.Label || got.Power != want.Power {
			t.Fatalf("query %d: session (%d, %v) != direct (%d, %v)",
				i, got.Label, got.Power, want.Label, want.Power)
		}
		for j := range want.Raw {
			if got.Raw[j] != want.Raw[j] {
				t.Fatalf("query %d raw[%d]: %v != %v", i, j, got.Raw[j], want.Raw[j])
			}
		}
	}
}

func TestSessionBudgetAndIsolation(t *testing.T) {
	v := buildTestVictim(t, "m", 4)
	s := newTestService(t, Config{Seed: 4, DefaultSessionBudget: 7}, v)
	a, err := s.OpenSession("m", SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.OpenSession("m", SessionConfig{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == b.ID() {
		t.Fatal("session ids must be unique")
	}
	if a.Budget() != 7 {
		t.Fatalf("default budget = %d, want 7", a.Budget())
	}
	u := v.test.X.Row(0)
	for i := 0; i < 2; i++ {
		if _, err := b.Query(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Query(u); !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// Session a's budget is untouched by b's exhaustion.
	if a.Remaining() != 7 || a.Queries() != 0 {
		t.Fatalf("session a charged by session b: remaining=%d queries=%d", a.Remaining(), a.Queries())
	}
	if err := s.CloseSession(b.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Session(b.ID()); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("want ErrSessionUnknown, got %v", err)
	}
	if err := s.CloseSession(b.ID()); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("double close: want ErrSessionUnknown, got %v", err)
	}
}

func TestSessionRejectsBadInputWithoutCharge(t *testing.T) {
	v := buildTestVictim(t, "m", 5)
	s := newTestService(t, Config{Seed: 5}, v)
	sess, err := s.OpenSession("m", SessionConfig{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query([]float64{1, 2, 3}); err == nil {
		t.Fatal("short input must error")
	}
	if sess.Queries() != 0 {
		t.Fatalf("malformed query charged budget: %d", sess.Queries())
	}
	// A malformed query must not have poisoned the victim for others.
	if _, err := sess.Query(v.test.X.Row(0)); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignReplayBitIdentical is the determinism acceptance test: the
// same campaign spec replayed on services with different worker counts
// (and again from the cache) yields bit-identical floats.
func TestCampaignReplayBitIdentical(t *testing.T) {
	spec := CampaignSpec{
		Victim: "m", Mode: oracle.RawOutput, Seed: 99,
		Queries: 40, Lambda: 0.004, SurrogateEpochs: 10, AttackEps: 0.6,
	}
	var results []*CampaignResult
	for _, workers := range []int{1, 8} {
		s := newTestService(t, Config{Seed: 6, Workers: workers}, buildTestVictim(t, "m", 6))
		res, err := s.RunCampaign(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("first run must not be cached")
		}
		again, err := s.RunCampaign(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatal("second identical run must be served from cache")
		}
		again.Cached = res.Cached
		if *again != *res {
			t.Fatalf("cached replay differs: %+v vs %+v", again, res)
		}
		results = append(results, res)
	}
	if *results[0] != *results[1] {
		t.Fatalf("campaign not worker-invariant:\n  w=1: %+v\n  w=8: %+v", results[0], results[1])
	}
	if results[0].QueriesCharged != spec.Queries {
		t.Fatalf("charged %d queries, want %d", results[0].QueriesCharged, spec.Queries)
	}
	if results[0].SurrogateAccuracy <= 0.2 {
		t.Fatalf("surrogate accuracy %v suspiciously low", results[0].SurrogateAccuracy)
	}
	if results[0].AdvAccuracy >= results[0].CleanAccuracy {
		t.Fatalf("FGSM did no damage: adv %v >= clean %v", results[0].AdvAccuracy, results[0].CleanAccuracy)
	}
}

func TestCampaignValidation(t *testing.T) {
	v := buildTestVictim(t, "m", 7)
	s := newTestService(t, Config{Seed: 7}, v)
	if _, err := s.RunCampaign(CampaignSpec{Victim: "nope", Mode: oracle.LabelOnly, Queries: 5}); !errors.Is(err, ErrVictimUnknown) {
		t.Fatalf("want ErrVictimUnknown, got %v", err)
	}
	if _, err := s.RunCampaign(CampaignSpec{Victim: "m", Mode: oracle.LabelOnly}); err == nil {
		t.Fatal("zero query budget must error")
	}
	if _, err := s.RunCampaign(CampaignSpec{Victim: "m", Mode: oracle.Mode(9), Queries: 5}); err == nil {
		t.Fatal("unknown mode must error")
	}
	// A campaign asking for more queries than the victim's training set
	// still works (Collect clamps), and charges only what it spent.
	res, err := s.RunCampaign(CampaignSpec{Victim: "m", Mode: oracle.LabelOnly, Queries: 1000, SurrogateEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesCharged != v.train.Len() {
		t.Fatalf("charged %d, want clamp to train size %d", res.QueriesCharged, v.train.Len())
	}
}

func TestCampaignSingleflight(t *testing.T) {
	s := newTestService(t, Config{Seed: 8, MaxConcurrentJobs: 4}, buildTestVictim(t, "m", 8))
	spec := CampaignSpec{Victim: "m", Mode: oracle.LabelOnly, Seed: 1, Queries: 30, SurrogateEpochs: 4}
	const callers = 6
	results := make([]*CampaignResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.RunCampaign(spec)
			if err != nil {
				panic(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	hits, misses := s.cache.Stats()
	if misses != 1 {
		t.Fatalf("computed %d times, want singleflight (1)", misses)
	}
	if hits != callers-1 {
		t.Fatalf("cache hits = %d, want %d", hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		a, b := *results[0], *results[i]
		a.Cached, b.Cached = false, false
		if a != b {
			t.Fatalf("caller %d got a different result", i)
		}
	}
}

func TestExtractCachedAndCalibrated(t *testing.T) {
	v := buildTestVictim(t, "m", 9)
	s := newTestService(t, Config{Seed: 9}, v)
	res, err := s.RunExtract(ExtractSpec{Victim: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("first extraction must not be cached")
	}
	if res.ProbeQueries != v.Inputs() {
		t.Fatalf("probe spent %d queries, want %d basis reads", res.ProbeQueries, v.Inputs())
	}
	// The calibrated norms must recover the true column 1-norms of the
	// victim's weights on an ideal crossbar.
	want := v.net.W.ColAbsSums()
	for j := range want {
		if diff := math.Abs(res.Norms[j] - want[j]); diff > 1e-9*(1+math.Abs(want[j])) {
			t.Fatalf("norm[%d] = %v, want %v", j, res.Norms[j], want[j])
		}
	}
	again, err := s.RunExtract(ExtractSpec{Victim: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeat extraction must be served from cache")
	}
	// A different probe config is a different artifact.
	other, err := s.RunExtract(ExtractSpec{Victim: "m", Repeats: 3, NoiseStd: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatal("different probe config must recompute")
	}
	if other.ProbeQueries != 3*v.Inputs() {
		t.Fatalf("averaged probe spent %d queries, want %d", other.ProbeQueries, 3*v.Inputs())
	}
	// The served signals are the scalar path's, bit for bit: a probe over
	// the bare array's TotalCurrent on the noise stream runExtract derives,
	// against the fused one-row reads the service makes.
	for _, c := range []struct {
		spec ExtractSpec
		got  []float64
	}{
		{ExtractSpec{Victim: "m", Repeats: 1}, res.Signals},
		{ExtractSpec{Victim: "m", Repeats: 3, NoiseStd: 0.05, Seed: 2}, other.Signals},
	} {
		var src *rng.Source
		if c.spec.NoiseStd > 0 {
			src = rng.New(c.spec.Seed).Split("extract").Split(v.name)
		}
		probe, err := sidechannel.NewProbe(sidechannel.MeterFromCrossbar(v.hw.Crossbar()), c.spec.NoiseStd, src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := probe.ExtractColumnSignals(c.spec.Repeats)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.got) != len(want) {
			t.Fatalf("served %d signals, scalar path %d", len(c.got), len(want))
		}
		for j := range want {
			if math.Float64bits(c.got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("repeats %d noise %g: signal[%d] = %v, scalar path %v", c.spec.Repeats, c.spec.NoiseStd, j, c.got[j], want[j])
			}
		}
	}
}

func TestServiceCloseRefusesWork(t *testing.T) {
	v := buildTestVictim(t, "m", 10)
	s := New(Config{Seed: 10})
	if err := s.Register(v); err != nil {
		t.Fatal(err)
	}
	sess, err := s.OpenSession("m", SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.OpenSession("m", SessionConfig{}); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("want ErrServiceClosed, got %v", err)
	}
	if _, err := s.RunCampaign(CampaignSpec{Victim: "m", Mode: oracle.LabelOnly, Queries: 3}); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("want ErrServiceClosed, got %v", err)
	}
	if _, err := sess.Query(v.test.X.Row(0)); !errors.Is(err, ErrVictimClosed) {
		t.Fatalf("want ErrVictimClosed, got %v", err)
	}
}

func TestTrainVictimDeterministic(t *testing.T) {
	spec := VictimSpec{Kind: dataset.MNIST, Seed: 3, TrainN: 60, TestN: 30, Epochs: 2}
	a, err := TrainVictim(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainVictim(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "mnist" || a.Inputs() != 28*28 || a.Outputs() != 10 {
		t.Fatalf("victim geometry: %s %dx%d", a.Name(), a.Inputs(), a.Outputs())
	}
	da, db := a.net.W.Data(), b.net.W.Data()
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("TrainVictim not deterministic at weight %d", i)
		}
	}
	for i, w := range da {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("non-finite weight at %d: %v", i, w)
		}
	}
}

func TestExtractResultIsCallerOwned(t *testing.T) {
	v := buildTestVictim(t, "m", 12)
	s := newTestService(t, Config{Seed: 12}, v)
	first, err := s.RunExtract(ExtractSpec{Victim: "m"})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), first.Norms...)
	// A client post-processing its result in place must not corrupt the
	// cached artifact other clients receive.
	for i := range first.Norms {
		first.Norms[i] = -1
		first.Signals[i] = -1
	}
	second, err := s.RunExtract(ExtractSpec{Victim: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second extraction must be cached")
	}
	for i := range want {
		if second.Norms[i] != want[i] {
			t.Fatalf("cached norm[%d] corrupted by caller mutation: %v != %v", i, second.Norms[i], want[i])
		}
	}
}

func TestArtifactCacheBounded(t *testing.T) {
	v := buildTestVictim(t, "m", 13)
	// Every extraction of one victim weighs the same, so a byte budget
	// of three such artifacts retains at most three.
	n := v.hw.Inputs()
	one := artifactWeight(&ExtractResult{Signals: make([]float64, n), Norms: make([]float64, n)})
	s := newTestService(t, Config{Seed: 13, MaxCachedArtifactBytes: 3 * one}, v)
	for seed := int64(1); seed <= 6; seed++ {
		if _, err := s.RunExtract(ExtractSpec{Victim: "m", NoiseStd: 0.01, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.cache.Size(); n > 3 {
		t.Fatalf("cache holds %d artifacts, bound is 3", n)
	}
	// The newest artifact survived; the oldest was evicted (recomputed
	// on request -> not cached).
	res, err := s.RunExtract(ExtractSpec{Victim: "m", NoiseStd: 0.01, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("newest artifact should still be cached")
	}
	res, err = s.RunExtract(ExtractSpec{Victim: "m", NoiseStd: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("oldest artifact should have been evicted")
	}
}
