package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
)

// buildTestVictimDevice is buildTestVictim with a chosen device config
// — twin victims built from the same seed are bit-identical, including
// their read-noise streams, so a batched serving path can be compared
// against a sequential one on separate services without shared state.
func buildTestVictimDevice(t testing.TB, name string, seed int64, dev crossbar.DeviceConfig) *Victim {
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
	var devSrc *rng.Source
	if dev.ReadNoiseStd > 0 || dev.ProgramNoiseStd > 0 || dev.StuckFraction > 0 {
		devSrc = src.Split("device")
	}
	hw, err := crossbar.NewNetwork(net, dev, devSrc)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVictim(name, net, hw, train, test)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// testDevices returns the two device regimes the bit-identity contract
// covers: noise-free (stateless array) and read-noisy (stateful array,
// where only input ORDER preserves the stream).
func testDevices() map[string]crossbar.DeviceConfig {
	ideal := crossbar.DefaultDeviceConfig()
	ideal.GOff = 0
	noisy := crossbar.DefaultDeviceConfig()
	noisy.ReadNoiseStd = 0.05
	return map[string]crossbar.DeviceConfig{"noise-free": ideal, "noisy": noisy}
}

// TestQueryBatchBitIdenticalToSequential pins the batched query path's
// core contract: QueryBatch(xs) returns exactly the responses of
// len(xs) sequential Query calls — labels, raw vectors and power
// readings bit for bit — on noise-free AND noisy victims, in every
// disclosure/power mode, including session-level instrument noise.
// Twin services (same seed) isolate the two paths: their victims,
// session streams and noise states are bit-identical by construction.
func TestQueryBatchBitIdenticalToSequential(t *testing.T) {
	modes := []SessionConfig{
		{Mode: oracle.LabelOnly, Budget: 64},
		{Mode: oracle.RawOutput, Budget: 64},
		{Mode: oracle.RawOutput, MeasurePower: true, Budget: 64},
		{Mode: oracle.RawOutput, MeasurePower: true, PowerNoiseStd: 0.02, Budget: 64},
	}
	for devName, dev := range testDevices() {
		for mi, cfg := range modes {
			t.Run(fmt.Sprintf("%s/mode%d", devName, mi), func(t *testing.T) {
				seqV := buildTestVictimDevice(t, "twin", 41, dev)
				batchV := buildTestVictimDevice(t, "twin", 41, dev)
				seqS := newTestService(t, Config{Seed: 41}, seqV)
				batchS := newTestService(t, Config{Seed: 41}, batchV)
				seqSess, err := seqS.OpenSession("twin", cfg)
				if err != nil {
					t.Fatal(err)
				}
				batchSess, err := batchS.OpenSession("twin", cfg)
				if err != nil {
					t.Fatal(err)
				}
				inputs := make([][]float64, 17)
				for i := range inputs {
					inputs[i] = seqV.test.X.Row(i)
				}
				want := make([]oracle.Response, len(inputs))
				for i, u := range inputs {
					if want[i], err = seqSess.Query(u); err != nil {
						t.Fatal(err)
					}
				}
				got, err := batchSess.QueryBatch(inputs)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("batch returned %d responses, want %d", len(got), len(want))
				}
				for i := range want {
					assertResponseEqual(t, i, got[i], want[i])
				}
				if seqSess.Queries() != batchSess.Queries() {
					t.Fatalf("accounting diverged: %d vs %d", seqSess.Queries(), batchSess.Queries())
				}
			})
		}
	}
}

func assertResponseEqual(t *testing.T, i int, got, want oracle.Response) {
	t.Helper()
	if got.Label != want.Label {
		t.Fatalf("response %d label = %d, want %d", i, got.Label, want.Label)
	}
	if got.Power != want.Power {
		t.Fatalf("response %d power = %v, want %v (diff %g)", i, got.Power, want.Power, got.Power-want.Power)
	}
	if len(got.Raw) != len(want.Raw) {
		t.Fatalf("response %d raw len = %d, want %d", i, len(got.Raw), len(want.Raw))
	}
	for j := range want.Raw {
		if got.Raw[j] != want.Raw[j] {
			t.Fatalf("response %d raw[%d] = %v, want %v", i, j, got.Raw[j], want.Raw[j])
		}
	}
}

// TestQueryBatchConcurrentBitIdentical runs many concurrent sessions
// each submitting batches against ONE shared noise-free victim, while a
// twin service serves the same inputs sequentially — every session's
// batch must still match its sequential twin bit for bit, no matter how
// the concurrent batches interleave. (Noise-free only:
// on a noisy array concurrent interleaving legitimately changes the
// stream, exactly as contended physical hardware would.) Run under
// -race this is also the batched path's data-race gate.
func TestQueryBatchConcurrentBitIdentical(t *testing.T) {
	dev := crossbar.DefaultDeviceConfig()
	dev.GOff = 0
	sharedV := buildTestVictimDevice(t, "twin", 43, dev)
	refV := buildTestVictimDevice(t, "twin", 43, dev)
	shared := newTestService(t, Config{Seed: 43}, sharedV)
	ref := newTestService(t, Config{Seed: 43}, refV)

	const sessions = 8
	cfg := SessionConfig{Mode: oracle.RawOutput, MeasurePower: true, Budget: 128}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		// Open in order so twin session streams pair up; the queries run
		// concurrently below.
		batchSess, err := shared.OpenSession("twin", cfg)
		if err != nil {
			t.Fatal(err)
		}
		seqSess, err := ref.OpenSession("twin", cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int, batchSess, seqSess *Session) {
			defer wg.Done()
			inputs := make([][]float64, 11)
			for i := range inputs {
				inputs[i] = sharedV.test.X.Row((s*7 + i) % sharedV.test.Len())
			}
			got, err := batchSess.QueryBatch(inputs)
			if err != nil {
				errs <- err
				return
			}
			for i, u := range inputs {
				want, err := seqSess.Query(u)
				if err != nil {
					errs <- err
					return
				}
				if want.Label != got[i].Label || want.Power != got[i].Power {
					errs <- fmt.Errorf("session %d response %d diverged under concurrency", s, i)
					return
				}
				for j := range want.Raw {
					if want.Raw[j] != got[i].Raw[j] {
						errs <- fmt.Errorf("session %d response %d raw[%d] diverged", s, i, j)
						return
					}
				}
			}
		}(s, batchSess, seqSess)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueryBatchPrefixAdmission pins the batched budget contract: the
// admitted prefix answers, the tail is refused with ErrBudgetExhausted,
// and a fully-exhausted batch fails whole.
func TestQueryBatchPrefixAdmission(t *testing.T) {
	v := buildTestVictim(t, "m", 47)
	s := newTestService(t, Config{Seed: 47}, v)
	sess, err := s.OpenSession("m", SessionConfig{Mode: oracle.RawOutput, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, 5)
	for i := range inputs {
		inputs[i] = v.test.X.Row(i)
	}
	resps, err := sess.QueryBatch(inputs)
	if !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if len(resps) != 3 || sess.Queries() != 3 || sess.Remaining() != 0 {
		t.Fatalf("prefix = %d responses, %d charged, %d remaining", len(resps), sess.Queries(), sess.Remaining())
	}
	if resps, err = sess.QueryBatch(inputs[:2]); err == nil || len(resps) != 0 {
		t.Fatalf("exhausted batch: %d responses, err %v", len(resps), err)
	}
}

// TestQueryBatchConcurrentAdmissionExact hammers one budgeted session
// with concurrent batches: the total responses delivered must equal the
// budget exactly — batched reservation can never over- or under-admit.
func TestQueryBatchConcurrentAdmissionExact(t *testing.T) {
	v := buildTestVictim(t, "m", 48)
	s := newTestService(t, Config{Seed: 48}, v)
	const budget = 57
	sess, err := s.OpenSession("m", SessionConfig{Mode: oracle.RawOutput, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 9
	var wg sync.WaitGroup
	delivered := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				inputs := make([][]float64, 3)
				for i := range inputs {
					inputs[i] = v.test.X.Row((g + i + k) % v.test.Len())
				}
				resps, err := sess.QueryBatch(inputs)
				if err != nil && !errors.Is(err, oracle.ErrBudgetExhausted) {
					t.Error(err)
					return
				}
				delivered[g] += len(resps)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range delivered {
		total += n
	}
	if total != budget {
		t.Fatalf("delivered %d responses on budget %d", total, budget)
	}
	if sess.Queries() != budget {
		t.Fatalf("charged %d on budget %d", sess.Queries(), budget)
	}
}

// TestNoisyVictimSubmissionsContiguous pins the noisy-array serving
// guarantee: a read-noisy victim serves each submission as one
// contiguous run of reads. Two sessions send a 24-row QueryBatch at
// once; their responses must equal one of the two whole-submission
// serial orders, each replayed on a twin victim (same seed, so the same
// noise stream). Interleaved rows would consume the noise stream in
// neither order.
func TestNoisyVictimSubmissionsContiguous(t *testing.T) {
	const seed, rows = 45, 24
	dev := testDevices()["noisy"]
	cfg := SessionConfig{Mode: oracle.RawOutput, MeasurePower: true, Budget: rows}
	open := func() (*Victim, [2]*Session) {
		v := buildTestVictimDevice(t, "twin", seed, dev)
		s := newTestService(t, Config{Seed: seed}, v)
		var sess [2]*Session
		for i := range sess {
			var err error
			if sess[i], err = s.OpenSession("twin", cfg); err != nil {
				t.Fatal(err)
			}
		}
		return v, sess
	}
	v, _ := open()
	var inputs [2][][]float64
	for i := range inputs {
		for r := 0; r < rows; r++ {
			inputs[i] = append(inputs[i], v.test.X.Row(i*rows+r))
		}
	}
	// serial[first] holds both sessions' responses when session first's
	// whole submission is served before the other's.
	var serial [2][2][]oracle.Response
	for first := range serial {
		_, sess := open()
		for _, i := range []int{first, 1 - first} {
			resps, err := sess[i].QueryBatch(inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			serial[first][i] = resps
		}
	}
	if sameResponses(serial[0], serial[1]) {
		t.Fatal("both serial orders give the same responses, so no interleaving could show")
	}
	for trial := 0; trial < 20; trial++ {
		_, sess := open()
		var got [2][]oracle.Response
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range sess {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = sess[i].QueryBatch(inputs[i])
			}(i)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if !sameResponses(got, serial[0]) && !sameResponses(got, serial[1]) {
			t.Fatalf("trial %d: concurrent submissions match neither serial order: their rows interleaved", trial)
		}
	}
}

// sameResponses reports whether two sessions' response lists are equal
// bit for bit.
func sameResponses(a, b [2][]oracle.Response) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, r := range a[i] {
			w := b[i][j]
			if r.Label != w.Label || r.Power != w.Power || len(r.Raw) != len(w.Raw) {
				return false
			}
			for k := range w.Raw {
				if r.Raw[k] != w.Raw[k] {
					return false
				}
			}
		}
	}
	return true
}
