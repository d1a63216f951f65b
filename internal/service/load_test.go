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

// TestConcurrentSessionLoad is the service-layer load test: ten sessions
// (two goroutines each) hammer one victim while extraction and campaign
// jobs run alongside. Every delivered response is checked bit-for-bit
// against a serial reference oracle, every session budget must be
// admitted exactly, and the victim's served count must equal the
// queries that were actually granted — refused queries may never reach
// the array. Run under -race this is the
// honesty check for the whole concurrent layer.
func TestConcurrentSessionLoad(t *testing.T) {
	v := buildTestVictim(t, "m", 42)
	s := newTestService(t, Config{Seed: 42, Workers: 2, MaxConcurrentJobs: 2}, v)

	// Serial reference responses for every test row, computed on the
	// same (read-only, noise-free) array before the load starts.
	ref, err := oracle.New(v.hw, oracle.Config{Mode: oracle.RawOutput, MeasurePower: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]oracle.Response, v.test.Len())
	for i := range want {
		resp, err := ref.Query(v.test.X.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp
	}

	const (
		sessions             = 10
		goroutinesPerSession = 2
		attemptsPerGoroutine = 25
		budget               = 30 // < 2*25, so every session sees refusals
	)
	sess := make([]*Session, sessions)
	for i := range sess {
		sess[i], err = s.OpenSession("m", SessionConfig{
			Mode: oracle.RawOutput, MeasurePower: true, Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	granted := make([]int64, sessions)
	errCh := make(chan error, sessions*goroutinesPerSession+4)
	var grantedMu sync.Mutex
	for si, se := range sess {
		for g := 0; g < goroutinesPerSession; g++ {
			wg.Add(1)
			go func(si, g int, se *Session) {
				defer wg.Done()
				for k := 0; k < attemptsPerGoroutine; k++ {
					row := (g*attemptsPerGoroutine + k) % v.test.Len()
					resp, err := se.Query(v.test.X.Row(row))
					if errors.Is(err, oracle.ErrBudgetExhausted) {
						continue
					}
					if err != nil {
						errCh <- err
						return
					}
					w := want[row]
					if resp.Label != w.Label || resp.Power != w.Power {
						errCh <- fmt.Errorf("session %d row %d: (%d,%v) != reference (%d,%v)",
							si, row, resp.Label, resp.Power, w.Label, w.Power)
						return
					}
					for j := range w.Raw {
						if resp.Raw[j] != w.Raw[j] {
							errCh <- fmt.Errorf("session %d row %d raw[%d] mismatch", si, row, j)
							return
						}
					}
					grantedMu.Lock()
					granted[si]++
					grantedMu.Unlock()
				}
			}(si, g, se)
		}
	}
	// Mixed job traffic while sessions hammer the array: two identical
	// extraction specs (singleflight collapses them to one compute) plus
	// one distinct, and a campaign.
	jobs := []func() error{
		func() error { _, err := s.RunExtract(ExtractSpec{Victim: "m"}); return err },
		func() error { _, err := s.RunExtract(ExtractSpec{Victim: "m"}); return err },
		func() error { _, err := s.RunExtract(ExtractSpec{Victim: "m", Repeats: 2}); return err },
		func() error {
			_, err := s.RunCampaign(CampaignSpec{
				Victim: "m", Mode: oracle.LabelOnly, Seed: 7, Queries: 20, SurrogateEpochs: 2,
			})
			return err
		},
	}
	for _, job := range jobs {
		wg.Add(1)
		go func(job func() error) {
			defer wg.Done()
			if err := job(); err != nil {
				errCh <- err
			}
		}(job)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var totalGranted int64
	for si, se := range sess {
		if granted[si] != budget {
			t.Fatalf("session %d: granted %d queries, want exactly %d", si, granted[si], budget)
		}
		if se.Queries() != budget || se.Remaining() != 0 {
			t.Fatalf("session %d accounting: queries=%d remaining=%d", si, se.Queries(), se.Remaining())
		}
		totalGranted += granted[si]
	}

	st := s.Stats()
	if len(st.Victims) != 1 {
		t.Fatalf("stats victims = %d", len(st.Victims))
	}
	vs := st.Victims[0]
	// Exactly the granted session queries, plus the two unique
	// extraction sweeps — N basis reads for the deduplicated repeats=1
	// spec, 2N for the repeats=2 spec — plus the campaign's 20
	// collection queries (every job reads through the victim's guard;
	// only batched post-hoc evaluation like PredictBatch reads the
	// noise-free array directly) — and nothing for the refused queries,
	// which must never reach the array.
	wantRequests := totalGranted + int64(v.Inputs()) + int64(2*v.Inputs()) + 20
	if vs.Requests != wantRequests {
		t.Fatalf("victim served %d requests, want %d", vs.Requests, wantRequests)
	}
	if vs.Batches <= 0 || vs.Batches > vs.Requests {
		t.Fatalf("batches = %d out of range (requests %d)", vs.Batches, vs.Requests)
	}
	if vs.MaxBatch < 1 {
		t.Fatalf("max batch = %d", vs.MaxBatch)
	}
	if vs.OpenSessions != sessions {
		t.Fatalf("open sessions = %d, want %d", vs.OpenSessions, sessions)
	}
	t.Logf("serving: %d requests in %d batches (max %d, mean %.2f)",
		vs.Requests, vs.Batches, vs.MaxBatch, float64(vs.Requests)/float64(vs.Batches))
}

// benchVictim trains a production-geometry victim (28x28 = 784 inputs,
// the real MNIST shape) so the serving benchmarks measure array-read
// cost at realistic dimensions rather than toy-fixture overhead.
func benchVictim(b *testing.B, name string) *Victim {
	b.Helper()
	src := rng.New(77)
	gen := func(label string, n int) *dataset.Dataset {
		ds, err := dataset.GenerateMNISTLike(src.Split(label), n, dataset.DefaultMNISTLikeConfig())
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	train, test := gen("train", 120), gen("test", 40)
	net, _, err := nn.TrainNew(train, nn.ActLinear, nn.LossMSE, nn.TrainConfig{
		Epochs: 4, BatchSize: 16, LearningRate: 0.05, Momentum: 0.9, ZeroInit: true,
	}, src.Split("fit"))
	if err != nil {
		b.Fatal(err)
	}
	hw, err := crossbar.NewNetwork(net, crossbar.DefaultDeviceConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	v, err := NewVictim(name, net, hw, train, test)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// benchInputs returns dense inputs (every pixel driven, as CIFAR-like
// traffic is) so the benchmark measures array-read cost rather than the
// sparse-input fast path.
func benchInputs(v *Victim, n int) [][]float64 {
	src := rng.New(177)
	us := make([][]float64, n)
	for i := range us {
		us[i] = src.UniformVec(v.Inputs(), 0, 1)
	}
	return us
}

// BenchmarkServingPerCallScalar is the floor for BenchmarkServingSession:
// every concurrent client holds its own oracle directly on the shared
// array, so each power-measuring query is its own one-row fused read,
// with no session, guard or counters in between.
func BenchmarkServingPerCallScalar(b *testing.B) {
	v := benchVictim(b, "bench-scalar")
	rows := benchInputs(v, 64)
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		orc, err := oracle.New(v.hw, oracle.Config{Mode: oracle.RawOutput, MeasurePower: true})
		if err != nil {
			b.Error(err)
			return
		}
		i := 0
		for pb.Next() {
			if _, err := orc.Query(rows[i%len(rows)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkServingSession routes the same concurrent power-measuring
// traffic through service sessions: each query is a one-row fused read
// on the client's goroutine, behind the victim's read guard, so its
// cost over BenchmarkServingPerCallScalar is the session, the guard
// and the serving counters.
func BenchmarkServingSession(b *testing.B) {
	v := benchVictim(b, "bench-session")
	s := New(Config{Seed: 77})
	if err := s.Register(v); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rows := benchInputs(v, 64)
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess, err := s.OpenSession("bench-session", SessionConfig{
			Mode: oracle.RawOutput, MeasurePower: true, Budget: -1,
		})
		if err != nil {
			b.Error(err)
			return
		}
		i := 0
		for pb.Next() {
			if _, err := sess.Query(rows[i%len(rows)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
