package oracle

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// flakyHW injects power-read failures on top of a real crossbar network:
// the error-injection harness for the query-accounting contract.
type flakyHW struct {
	*crossbar.Network
	failPower  bool
	powerCalls int
}

var errMeter = errors.New("power meter fault")

func (f *flakyHW) Power(u []float64) (float64, error) {
	f.powerCalls++
	if f.failPower {
		return 0, errMeter
	}
	return f.Network.Power(u)
}

// fusedHW exposes the ForwardPowerer fast path by delegating to the
// sequential reads, optionally failing.
type fusedHW struct {
	*crossbar.Network
	fail  bool
	calls int
}

func (f *fusedHW) ForwardPower(u []float64) ([]float64, float64, error) {
	f.calls++
	if f.fail {
		return nil, 0, errMeter
	}
	y, err := f.Network.Forward(u)
	if err != nil {
		return nil, 0, err
	}
	p, err := f.Network.Power(u)
	if err != nil {
		return nil, 0, err
	}
	return y, p, nil
}

func TestQueryPowerErrorRollsBackBudget(t *testing.T) {
	_, net, ds := buildOracle(t, 21, RawOutput, true)
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyHW{Network: hw, failPower: true}
	o, err := New(flaky, Config{Mode: RawOutput, MeasurePower: true, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := ds.Sample(0)
	if _, err := o.Query(u); !errors.Is(err, errMeter) {
		t.Fatalf("want injected meter error, got %v", err)
	}
	// The failed query delivered no response, so nothing may be charged.
	if q := o.Queries(); q != 0 {
		t.Fatalf("failed power read charged the budget: queries = %d", q)
	}
	if r := o.Remaining(); r != 5 {
		t.Fatalf("remaining = %d, want 5", r)
	}
	// After the fault clears, the full budget is still available.
	flaky.failPower = false
	for i := 0; i < 5; i++ {
		if _, err := o.Query(u); err != nil {
			t.Fatalf("query %d after fault cleared: %v", i, err)
		}
	}
	if q := o.Queries(); q != 5 {
		t.Fatalf("queries = %d, want 5", q)
	}
	if _, err := o.Query(u); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}

func TestQueryForwardErrorRollsBackBudget(t *testing.T) {
	_, net, _ := buildOracle(t, 22, LabelOnly, false)
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(hw, Config{Mode: LabelOnly, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Query([]float64{1, 2}); err == nil {
		t.Fatal("short input must error")
	}
	if q := o.Queries(); q != 0 {
		t.Fatalf("failed forward charged the budget: queries = %d", q)
	}
}

func TestQueryUsesFusedPathAndRollsBack(t *testing.T) {
	_, net, ds := buildOracle(t, 23, RawOutput, true)
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fused := &fusedHW{Network: hw}
	o, err := New(fused, Config{Mode: RawOutput, MeasurePower: true, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(hw, Config{Mode: RawOutput, MeasurePower: true})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := ds.Sample(2)
	got, err := o.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	if fused.calls != 1 {
		t.Fatalf("fused path used %d times, want 1", fused.calls)
	}
	want, err := ref.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != want.Label || got.Power != want.Power {
		t.Fatalf("fused response %+v != sequential %+v", got, want)
	}
	for i := range want.Raw {
		if got.Raw[i] != want.Raw[i] {
			t.Fatalf("raw[%d]: %v != %v", i, got.Raw[i], want.Raw[i])
		}
	}
	fused.fail = true
	if _, err := o.Query(u); !errors.Is(err, errMeter) {
		t.Fatalf("want injected error, got %v", err)
	}
	if q := o.Queries(); q != 1 {
		t.Fatalf("failed fused read charged the budget: queries = %d", q)
	}
}

func TestRawResponseIsCallerOwned(t *testing.T) {
	o, _, ds := buildOracle(t, 24, RawOutput, false)
	u, _ := ds.Sample(0)
	first, err := o.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.CloneVec(first.Raw)
	// An attacker scribbling over a response must not disturb the oracle
	// or any later response.
	for i := range first.Raw {
		first.Raw[i] = -1e9
	}
	second, err := o.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if second.Raw[i] != want[i] {
			t.Fatalf("raw[%d] changed after caller mutation: %v != %v", i, second.Raw[i], want[i])
		}
	}
}

func TestBudgetCannotOverAdmitUnderContention(t *testing.T) {
	_, net, ds := buildOracle(t, 25, LabelOnly, false)
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const (
		budget     = 100
		goroutines = 8
		perG       = 50 // 8*50 = 400 attempts against budget 100
	)
	o, err := New(hw, Config{Mode: LabelOnly, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := ds.Sample(0)
	var wg sync.WaitGroup
	granted := make([]int, goroutines)
	refused := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := o.Query(u)
				switch {
				case err == nil:
					granted[g]++
				case errors.Is(err, ErrBudgetExhausted):
					refused[g]++
				default:
					panic(fmt.Sprintf("unexpected error: %v", err))
				}
			}
		}(g)
	}
	wg.Wait()
	var totalGranted, totalRefused int
	for g := range granted {
		totalGranted += granted[g]
		totalRefused += refused[g]
	}
	if totalGranted != budget {
		t.Fatalf("granted %d queries, want exactly %d", totalGranted, budget)
	}
	if totalRefused != goroutines*perG-budget {
		t.Fatalf("refused %d queries, want %d", totalRefused, goroutines*perG-budget)
	}
	if q := o.Queries(); q != budget {
		t.Fatalf("counter = %d, want %d", q, budget)
	}
	if r := o.Remaining(); r != 0 {
		t.Fatalf("remaining = %d, want 0", r)
	}
}

func TestCollectBudgetExhaustedMidCollection(t *testing.T) {
	_, net, ds := buildOracle(t, 26, LabelOnly, false)
	cfg := crossbar.DefaultDeviceConfig()
	cfg.GOff = 0
	hw, err := crossbar.NewNetwork(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(hw, Config{Mode: LabelOnly, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Collect(o, ds, 20, rng.New(26))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want wrapped ErrBudgetExhausted, got %v", err)
	}
	// All-or-nothing: partial rows are discarded...
	if qs != nil {
		t.Fatal("failed Collect must not return partial data")
	}
	// ...but the queries that were answered stay charged.
	if q := o.Queries(); q != 10 {
		t.Fatalf("queries = %d, want 10 (delivered responses stay charged)", q)
	}
	if r := o.Remaining(); r != 0 {
		t.Fatalf("remaining = %d, want 0", r)
	}
	// A collection that exactly fits the remaining budget succeeds.
	o.ResetQueries()
	qs, err = Collect(o, ds, 10, rng.New(27))
	if err != nil {
		t.Fatal(err)
	}
	if qs.Len() != 10 || o.Queries() != 10 || o.Remaining() != 0 {
		t.Fatalf("boundary collect: len=%d queries=%d remaining=%d", qs.Len(), o.Queries(), o.Remaining())
	}
}

// TestNonFiniteResponseRefused pins the overflow edge of the accounting
// contract: inputs near the float64 limit overflow the disclosed
// observables to ±Inf, a response no encoding can deliver, so the query
// fails with ErrNonFinite and is not charged, singly and batched. A
// label-only session without power discloses only the label, so it
// still answers (and charges) the same input.
func TestNonFiniteResponseRefused(t *testing.T) {
	o, _, ds := buildOracle(t, 23, LabelOnly, false)
	huge := make([]float64, o.Inputs())
	for i := range huge {
		huge[i] = 1.7e308
	}
	ok, _ := ds.Sample(0)
	for _, cfg := range []Config{{Mode: RawOutput}, {Mode: LabelOnly, MeasurePower: true}} {
		cfg.Budget = 5
		orc, err := New(o.hw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := orc.Query(huge); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%v: query err = %v, want ErrNonFinite", cfg.Mode, err)
		}
		if _, err := orc.QueryBatch([][]float64{ok, huge}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%v: batch err = %v, want ErrNonFinite", cfg.Mode, err)
		}
		if q := orc.Queries(); q != 0 {
			t.Fatalf("%v: undeliverable responses charged %d queries", cfg.Mode, q)
		}
	}
	if _, err := o.Query(huge); err != nil || o.Queries() != 1 {
		t.Fatalf("label-only query err = %v, queries = %d; want answered and charged", err, o.Queries())
	}
}
