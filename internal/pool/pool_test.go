package pool

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xbarsec/internal/rng"
)

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive counts must normalize to at least one worker")
	}
	if Workers(7) != 7 {
		t.Fatal("positive counts pass through")
	}
}

func TestDoRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 16} {
		for _, n := range []int{0, 1, 5, 100} {
			counts := make([]int, n)
			Do(workers, n, func(i int) { counts[i]++ })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: item %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestDoDeterministicAcrossWorkerCounts(t *testing.T) {
	// Per-index randomness assembled by index must be bit-identical for
	// any worker count — the contract the experiment runners rely on.
	const n = 64
	root := rng.New(42)
	draw := func(workers int) []float64 {
		out := make([]float64, n)
		Do(workers, n, func(i int) {
			src := root.SplitN("item", i)
			out[i] = src.Normal(0, 1) * src.Float64()
		})
		return out
	}
	want := draw(1)
	for _, workers := range []int{2, 5, 16} {
		got := draw(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestDoErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := DoErr(workers, 20, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("workers=%d: got %v, want lowest-index error", workers, err)
		}
	}
}

func TestDoErrNilOnSuccess(t *testing.T) {
	if err := DoErr(3, 10, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDoErrAllItemsRunDespiteFailure(t *testing.T) {
	ran := make([]bool, 10)
	_ = DoErr(2, 10, func(i int) error {
		ran[i] = true
		return errors.New("boom")
	})
	for i, r := range ran {
		if !r {
			t.Fatalf("item %d skipped after another item failed", i)
		}
	}
}

func TestDoPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate to the caller")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "item 2") {
			t.Fatalf("panic %v should name the lowest panicking item", r)
		}
	}()
	Do(4, 8, func(i int) {
		if i >= 2 && i <= 3 {
			panic("kaboom")
		}
	})
}

func TestGateBoundsConcurrency(t *testing.T) {
	const limit, jobs = 3, 24
	g := NewGate(limit)
	if g.Limit() != limit {
		t.Fatalf("limit = %d, want %d", g.Limit(), limit)
	}
	var running, peak, done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = g.RunErr(func() error {
				n := running.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				running.Add(-1)
				done.Add(1)
				return nil
			})
		}()
	}
	wg.Wait()
	if done.Load() != jobs {
		t.Fatalf("done = %d, want %d", done.Load(), jobs)
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("peak concurrency %d exceeded limit %d", p, limit)
	}
}

func TestGateReleasesOnPanicAndError(t *testing.T) {
	g := NewGate(1)
	func() {
		defer func() { recover() }()
		_ = g.RunErr(func() error { panic("boom") })
	}()
	wantErr := errors.New("job failed")
	if err := g.RunErr(func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// The slot must be free again after both failures.
	ok := false
	if err := g.RunErr(func() error { ok = true; return nil }); err != nil || !ok {
		t.Fatal("gate slot leaked")
	}
}

func TestGateDefaultLimit(t *testing.T) {
	if got := NewGate(0).Limit(); got != Workers(0) {
		t.Fatalf("default limit = %d, want %d", got, Workers(0))
	}
}
