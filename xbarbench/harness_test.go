package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	s := summarize(xs)
	if s.N != 100 || s.Tail != 90 || s.TailPct != 90 {
		t.Fatalf("n=100: got tail %v at p%v (n=%d), want 90 at p90", s.Tail, s.TailPct, s.N)
	}
	if s.P50 != 50.5 {
		t.Fatalf("n=100: p50 %v, want 50.5", s.P50)
	}
	// Exactly eleven samples: the tail is the smallest, ten lie beyond it.
	s = summarize([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11})
	if s.Tail != 1 || s.TailPct != 100.0/11 {
		t.Fatalf("n=11: tail %v at p%v, want 1 at p%v", s.Tail, s.TailPct, 100.0/11)
	}
	if s = summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s.Tail != 0 || s.TailPct != 0 {
		t.Fatalf("n=10 has no sample with ten beyond it, got tail %v at p%v", s.Tail, s.TailPct)
	}
	// Failures are +Inf: three of fifteen push the tail to rank 5.
	xs = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, math.Inf(1), math.Inf(1), math.Inf(1)}
	if s = summarize(xs); s.Tail != 5 || s.TailPct != 100.0/3 {
		t.Fatalf("with failures: tail %v at p%v, want 5 at p%v", s.Tail, s.TailPct, 100.0/3)
	}
	// Eleven failures leave an infinite tail; the result line must stay JSON.
	xs = append(xs, math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1))
	if s = summarize(xs); !math.IsInf(s.Tail, 1) {
		t.Fatalf("eleven failures: tail %v, want +Inf", s.Tail)
	}
	if _, err := json.Marshal(finite(s.Tail)); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50}, // overlaps the first: 10..50 counts once
		{Start: 60, End: 70},
		{Start: 90, End: 120}, // sticks out: only 90..100 counts
		{Start: 130, End: 140},
	}
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("self time %v, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %v, want 100", got)
	}
}

func TestBreakdownFollowsRequestIDs(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "phase.light", Class: "light", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "client.Session.Query", Class: "light", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 2, Name: "http.roundtrip", Class: "light", Start: 1 * ms, End: 9 * ms, ReqBytes: 100, RespBytes: 300},
		{ID: 4, Parent: 3, Name: "server.handler", Start: 2 * ms, End: 7 * ms},
		{ID: 5, Parent: 1, Name: "replay.crossbar.fwdpower", Start: 50 * ms, End: 60 * ms},
	}
	b := breakdown(spans, "light")
	if len(b.clientSelf) != 1 || b.clientSelf[0] != 2 || b.httpOverhead[0] != 3 || b.handler[0] != 5 {
		t.Fatalf("breakdown %+v, want client 2 ms, http 3 ms, handler 5 ms", b)
	}
	if b.reqBytes[0] != 100 || b.respBytes[0] != 300 {
		t.Fatalf("wire bytes %v/%v, want 100/300", b.reqBytes, b.respBytes)
	}
}

// fakeCallers returns n callers that need no server.
func fakeCallers(n int) []*caller {
	cs := make([]*caller, n)
	for k := range cs {
		cs[k] = &caller{id: k}
	}
	return cs
}

func TestAttemptedIsSucceededPlusFailed(t *testing.T) {
	cls := &class{
		name: "light", perCaller: 7,
		run: func(_ context.Context, c *caller, i int) (time.Duration, error) {
			if i%3 == 0 {
				return 0, c.checkf("op %d rejected", i)
			}
			return time.Millisecond, nil
		},
	}
	res := runPhase(context.Background(), cls, fakeCallers(2), false)
	succeeded := 0
	for _, x := range res.lat {
		if !math.IsInf(x, 1) {
			succeeded++
		}
	}
	if res.attempted != 14 || res.failed != 6 || succeeded != 8 || res.attempted != succeeded+res.failed {
		t.Fatalf("attempted %d, succeeded %d, failed %d; want 14 = 8 + 6", res.attempted, succeeded, res.failed)
	}
	if len(res.problems) == 0 {
		t.Fatal("failed checks were not reported")
	}
	r := tally(discard{}, passResult{phases: []phaseResult{res}})
	if r.Correct || r.Attempted != 14 || r.Failed != 6 {
		t.Fatalf("tally %+v, want incorrect with 14 attempted and 6 failed", r)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestDigestIgnoresInterleaving runs the same ops twice, once with
// caller 0 running each op index before caller 1 and once the other way
// round: the workload digest must not change.
func TestDigestIgnoresInterleaving(t *testing.T) {
	digest := func(first int) string {
		var mu sync.Mutex
		turn := sync.NewCond(&mu)
		done := make([]int, 2) // ops finished per caller
		cls := &class{
			name: "light", perCaller: 20,
			run: func(_ context.Context, c *caller, i int) (time.Duration, error) {
				mu.Lock()
				for c.id != first && done[first] <= i {
					turn.Wait()
				}
				mu.Unlock()
				putU(c.digest, uint64(c.id*1000+i))
				mu.Lock()
				done[c.id]++
				turn.Broadcast()
				mu.Unlock()
				return time.Microsecond, nil
			},
		}
		return workloadDigest("w", []phaseResult{runPhase(context.Background(), cls, fakeCallers(2), false)})
	}
	if a, b := digest(0), digest(1); a != b {
		t.Fatalf("digest depends on interleaving: %s vs %s", a, b)
	}
}

func TestOpSeedsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, tag := range []string{"extract", "campaign", "experiment", "warm-extract"} {
		for k := range callers {
			for i := -1; i < 2000; i++ {
				s := opSeed(7, tag, k, i)
				if s < 0 || seen[s] {
					t.Fatalf("seed %d for %s/%d/%d negative or repeated", s, tag, k, i)
				}
				seen[s] = true
			}
		}
	}
	if opSeed(7, "extract", 0, 0) == opSeed(8, "extract", 0, 0) {
		t.Fatal("the workload seed does not change op seeds")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the workloads and
// the metrics the program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// Every gated workload exists in code with the same why; the code
	// also keeps the ungated experiment-jobs (see README.md).
	if len(b.Workloads) != len(workloads)-1 {
		t.Fatalf("%d workloads in BENCHMARK.json, want %d", len(b.Workloads), len(workloads)-1)
	}
	for _, bw := range b.Workloads {
		w, err := workloadByName(bw.Name)
		if err != nil || w.why != bw.Why || w.name == ungated {
			t.Errorf("BENCHMARK.json workload %q (%q) does not match the code", bw.Name, bw.Why)
		}
	}
	e2e := e2e{}.metrics()
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d printed", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit || m.Better != "lower" && m.Name != "ops_per_s" {
			t.Errorf("end-to-end metric %s (%s, %s) does not match the program", m.Name, m.Unit, m.Better)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, got, m)
		}
	}
}

func TestKernelDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { kernel(kernelBufs[0]) }); n != 0 {
		t.Fatalf("kernel allocates %v times per run", n)
	}
}
