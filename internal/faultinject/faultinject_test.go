package faultinject_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/faultinject"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/wal"
)

// schedule records which of n operations fail for one seeded FS.
func writeSchedule(t *testing.T, seed int64, rate float64, n int) []bool {
	t.Helper()
	dir := t.TempDir()
	fs := faultinject.NewFS(wal.OSFS{}, faultinject.FSConfig{
		Seed:  seed,
		Write: faultinject.Plan{ErrorRate: rate},
	})
	f, err := fs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make([]bool, n)
	for i := range out {
		_, err := f.Write([]byte("x"))
		out[i] = errors.Is(err, faultinject.ErrInjected)
	}
	return out
}

// TestDeterministicSchedule pins the harness's whole reason to exist:
// the same seed yields the same fault schedule, a different seed a
// different one.
func TestDeterministicSchedule(t *testing.T) {
	a := writeSchedule(t, 7, 0.5, 64)
	b := writeSchedule(t, 7, 0.5, 64)
	c := writeSchedule(t, 8, 0.5, 64)
	fails, same := 0, true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: seed-7 schedules diverge", i)
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("rate 0.5 over %d ops: %d failures — schedule is degenerate", len(a), fails)
	}
	if same {
		t.Error("seed 7 and seed 8 produced identical schedules")
	}
}

func TestFailAfter(t *testing.T) {
	fs := faultinject.NewFS(wal.OSFS{}, faultinject.FSConfig{
		Seed:  1,
		Write: faultinject.Plan{FailAfter: 3},
	})
	f, err := fs.OpenFile(filepath.Join(t.TempDir(), "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d within FailAfter budget: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("no")); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("write past FailAfter: got %v, want ErrInjected", err)
		}
	}
}

// TestTornWriteThroughWAL drives the real wal.Writer over a faulted FS:
// the injected torn write must leave earlier records replayable and the
// tear detectable — the exact crash signature journal recovery handles.
func TestTornWriteThroughWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	for seed := int64(0); seed < 20; seed++ {
		fs := faultinject.NewFS(wal.OSFS{}, faultinject.FSConfig{
			Seed:      seed,
			Write:     faultinject.Plan{FailAfter: 2},
			TornWrite: true,
		})
		w, err := wal.Create(fs, path, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte("first-record")); err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte("second-record")); err != nil {
			t.Fatal(err)
		}
		err = w.Append([]byte("torn-record"))
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("seed %d: third append: got %v, want injected fault", seed, err)
		}
		w.Close()

		var recs []string
		st, err := wal.Replay(wal.OSFS{}, path, func(rec []byte) error {
			recs = append(recs, string(rec))
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if len(recs) != 2 || recs[0] != "first-record" || recs[1] != "second-record" {
			t.Fatalf("seed %d: replayed %q, want the two intact records", seed, recs)
		}
		// A zero-length torn prefix is a clean tail; any other prefix
		// must be reported torn. Either way nothing wrong was delivered.
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		intact := int64((8 + len("first-record")) + (8 + len("second-record")))
		if info.Size() > intact && !st.Torn {
			t.Fatalf("seed %d: %d bytes past the intact frames but not reported torn", seed, info.Size()-intact)
		}
	}
}

func TestCrashSwitch(t *testing.T) {
	dir := t.TempDir()
	fs := faultinject.NewFS(wal.OSFS{}, faultinject.FSConfig{Seed: 1})
	f, err := fs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("pre-crash")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	// Both already-open handles and fresh operations are dead.
	if _, err := f.Write([]byte("post-crash")); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("write after crash: got %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("sync after crash: got %v, want ErrCrashed", err)
	}
	if _, err := fs.OpenFile(filepath.Join(dir, "g"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("open after crash: got %v, want ErrCrashed", err)
	}
	if err := fs.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "g")); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("rename after crash: got %v, want ErrCrashed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after crash (process-side teardown): %v", err)
	}
	// The crash froze the disk image: only the pre-crash write landed.
	data, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "pre-crash" {
		t.Fatalf("post-crash disk image = %q, want %q", data, "pre-crash")
	}
}

// stubHW is a minimal deterministic oracle.Hardware.
type stubHW struct{ calls atomic.Int64 }

func (s *stubHW) ForwardBatch(us [][]float64) ([][]float64, error) {
	s.calls.Add(1)
	return make([][]float64, len(us)), nil
}
func (s *stubHW) ForwardPowerBatch(us [][]float64) ([][]float64, []float64, error) {
	s.calls.Add(1)
	return make([][]float64, len(us)), make([]float64, len(us)), nil
}
func (s *stubHW) Inputs() int                  { return 4 }
func (s *stubHW) Outputs() int                 { return 2 }
func (s *stubHW) Crossbar() *crossbar.Crossbar { return nil }

func TestHardwareFaults(t *testing.T) {
	stub := &stubHW{}
	hw := faultinject.NewHardware(stub, faultinject.HardwareConfig{
		Seed:  3,
		Reads: faultinject.Plan{FailAfter: 2},
	})
	batch := [][]float64{{1, 2}, {3, 4}}
	if _, err := hw.ForwardBatch(batch); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, _, err := hw.ForwardPowerBatch(batch); err != nil {
		t.Fatalf("second read: %v", err)
	}
	if _, err := hw.ForwardBatch(batch); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("third read: got %v, want ErrInjected", err)
	}
	// One decision per batched call, and the injected failure never
	// reached the device.
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("device saw %d calls, want 2", got)
	}
	if hw.Inputs() != 4 || hw.Outputs() != 2 {
		t.Error("dimension passthrough broken")
	}
}

// TestOracleChargeRollbackUnderFaults drives the oracle's accounting
// contract through injected hardware failures: every query either
// delivers a response (and is charged) or fails with the typed injected
// error (and is rolled back) — the charge counter must equal the number
// of responses the attacker actually received, never a partial or wrong
// result in between.
func TestOracleChargeRollbackUnderFaults(t *testing.T) {
	net, err := nn.NewNetwork(2, 4, nn.ActLinear, nn.LossMSE)
	if err != nil {
		t.Fatal(err)
	}
	net.InitXavier(rng.New(1).Split("init"))
	dcfg := crossbar.DefaultDeviceConfig()
	dcfg.GOff = 0
	device, err := crossbar.NewNetwork(net, dcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hw := faultinject.NewHardware(device, faultinject.HardwareConfig{
		Seed:  11,
		Reads: faultinject.Plan{ErrorRate: 0.4},
	})
	orc, err := oracle.New(hw, oracle.Config{Mode: oracle.RawOutput, MeasurePower: true})
	if err != nil {
		t.Fatal(err)
	}
	u := []float64{1, 2, 3, 4}
	delivered := 0
	for i := 0; i < 200; i++ {
		resp, err := orc.Query(u)
		switch {
		case err == nil:
			// A delivered response is complete: forward output and power,
			// never one without the other.
			if len(resp.Raw) == 0 || resp.Power == 0 {
				t.Fatalf("query %d: partial response %+v", i, resp)
			}
			delivered++
		case errors.Is(err, faultinject.ErrInjected):
			// Typed failure, charge rolled back — asserted in aggregate
			// below.
		default:
			t.Fatalf("query %d: untyped error %v", i, err)
		}
	}
	if delivered == 0 || delivered == 200 {
		t.Fatalf("delivered %d/200 — fault schedule degenerate", delivered)
	}
	if got := orc.Queries(); got != delivered {
		t.Fatalf("charged %d queries, delivered %d responses — rollback broken", got, delivered)
	}

	// The batched half: a faulted batch delivers nothing and charges
	// nothing, a clean one delivers (and charges) every query.
	orc.ResetQueries()
	batch := [][]float64{u, {4, 3, 2, 1}, {0, 1, 0, 1}}
	delivered, faulted := 0, 0
	for i := 0; i < 60; i++ {
		resps, err := orc.QueryBatch(batch)
		switch {
		case err == nil:
			if len(resps) != len(batch) {
				t.Fatalf("batch %d: %d responses for %d queries", i, len(resps), len(batch))
			}
			for j, resp := range resps {
				if len(resp.Raw) == 0 || resp.Power == 0 {
					t.Fatalf("batch %d query %d: partial response %+v", i, j, resp)
				}
			}
			delivered += len(resps)
		case errors.Is(err, faultinject.ErrInjected):
			if resps != nil {
				t.Fatalf("batch %d: faulted batch delivered %d responses", i, len(resps))
			}
			faulted++
		default:
			t.Fatalf("batch %d: untyped error %v", i, err)
		}
	}
	if delivered == 0 || faulted == 0 {
		t.Fatalf("delivered %d queries over %d faulted batches — fault schedule degenerate", delivered, faulted)
	}
	if got := orc.Queries(); got != delivered {
		t.Fatalf("charged %d batched queries, delivered %d responses — rollback broken", got, delivered)
	}
}

func TestTransportFaults(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	// Without DropResponse the faulted request never reaches the server.
	tr := faultinject.NewTransport(nil, faultinject.TransportConfig{
		Seed:       5,
		RoundTrips: faultinject.Plan{FailAfter: 1},
	})
	cl := &http.Client{Transport: tr}
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatalf("first round trip: %v", err)
	}
	resp.Body.Close()
	if _, err := cl.Get(srv.URL); err == nil {
		t.Fatal("second round trip: want injected failure")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (fault fails before dispatch)", got)
	}
	if tr.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", tr.Faults())
	}

	// With DropResponse the request is executed and the answer lost —
	// the signature failure non-idempotent retry logic must respect.
	hits.Store(0)
	drop := faultinject.NewTransport(nil, faultinject.TransportConfig{
		Seed:         5,
		RoundTrips:   faultinject.Plan{FailAfter: 1},
		DropResponse: true,
	})
	cl = &http.Client{Transport: drop}
	resp, err = cl.Get(srv.URL)
	if err != nil {
		t.Fatalf("first round trip: %v", err)
	}
	resp.Body.Close()
	if _, err := cl.Get(srv.URL); err == nil {
		t.Fatal("second round trip: want injected failure")
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (DropResponse still dispatches)", got)
	}
}
