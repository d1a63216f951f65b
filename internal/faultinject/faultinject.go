// Package faultinject is the chaos harness for the durability layer:
// wrappers that inject deterministic, rng-seeded faults into the three
// surfaces crash recovery depends on — the filesystem under the job
// journal and artifact spill store (torn writes, disk errors, a crash
// switch), the oracle hardware (failed batched reads), and the SDK's
// HTTP transport (dropped responses, refused connections).
//
// Determinism is the point: every fault decision is drawn from an
// explicit rng.Source stream in operation order, so a chaos test at a
// fixed seed replays the same fault schedule bit-for-bit — recovery
// paths are tested the same reproducible way as everything else in this
// repository. (Under concurrency the schedule depends on operation
// arrival order, exactly like the noisy-hardware streams.)
package faultinject

import (
	"errors"
	"net/http"
	"os"
	"sync"
	"time"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/wal"
)

// ErrInjected is the failure every injected fault surfaces. Chaos tests
// assert on it to separate scheduled faults from real bugs.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrCrashed is returned by every operation on a crashed FS — the
// in-process stand-in for SIGKILL: the abandoned process's writes can
// no longer reach the disk.
var ErrCrashed = errors.New("faultinject: crashed")

// Plan schedules faults for one operation class. The zero value injects
// nothing.
type Plan struct {
	// ErrorRate makes each operation fail independently with this
	// probability, drawn from the harness's seeded stream.
	ErrorRate float64
	// FailAfter fails every operation after the first FailAfter
	// successes (0 = disabled) — the knob for "the disk dies at exactly
	// append k" schedules.
	FailAfter int
	// Latency sleeps this long before each operation (0 = none); with
	// LatencyRate in (0,1] only that fraction of operations stall. Used
	// to widen race windows under -race.
	Latency     time.Duration
	LatencyRate float64
}

// injector makes the per-operation decisions for one Plan from one
// seeded stream. Safe for concurrent use.
type injector struct {
	mu   sync.Mutex
	plan Plan
	src  *rng.Source
	ok   int // successful operations so far (FailAfter accounting)
}

func newInjector(plan Plan, src *rng.Source) *injector {
	return &injector{plan: plan, src: src}
}

// decide draws one fault decision and applies scheduled latency.
func (in *injector) decide() error {
	in.mu.Lock()
	var stall time.Duration
	fail := false
	if in.plan.Latency > 0 {
		rate := in.plan.LatencyRate
		if rate <= 0 || rate >= 1 || in.src.Float64() < rate {
			stall = in.plan.Latency
		}
	}
	if in.plan.FailAfter > 0 && in.ok >= in.plan.FailAfter {
		fail = true
	}
	if !fail && in.plan.ErrorRate > 0 && in.src.Float64() < in.plan.ErrorRate {
		fail = true
	}
	if !fail {
		in.ok++
	}
	in.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	if fail {
		return ErrInjected
	}
	return nil
}

// FSConfig schedules filesystem faults.
type FSConfig struct {
	// Seed roots the fault-decision streams.
	Seed int64
	// Write faults File.Write calls; Sync faults File.Sync; Open faults
	// FS.OpenFile.
	Write, Sync, Open Plan
	// TornWrite makes an injected write failure first land a strict
	// prefix of the buffer (length drawn from the seeded stream) — the
	// on-disk signature of a crash mid-append, which is exactly what
	// journal replay must survive.
	TornWrite bool
}

// FS wraps a wal.FS with scheduled faults and a crash switch.
type FS struct {
	inner wal.FS
	cfg   FSConfig

	write, sync, open *injector
	tornSrc           *rng.Source
	tornMu            sync.Mutex

	crashMu sync.Mutex
	crashed bool
}

// NewFS wraps inner with the scheduled faults.
func NewFS(inner wal.FS, cfg FSConfig) *FS {
	root := rng.New(cfg.Seed).Split("faultinject:fs")
	return &FS{
		inner:   inner,
		cfg:     cfg,
		write:   newInjector(cfg.Write, root.Split("write")),
		sync:    newInjector(cfg.Sync, root.Split("sync")),
		open:    newInjector(cfg.Open, root.Split("open")),
		tornSrc: root.Split("torn"),
	}
}

// Crash flips the crash switch: every subsequent operation — including
// ones on already-open files — fails with ErrCrashed. It simulates
// SIGKILL for in-process kill-and-restart tests: the abandoned service
// instance keeps running goroutines, but nothing it does can reach the
// state directory anymore.
func (f *FS) Crash() {
	f.crashMu.Lock()
	f.crashed = true
	f.crashMu.Unlock()
}

func (f *FS) dead() error {
	f.crashMu.Lock()
	defer f.crashMu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// OpenFile opens a file unless a scheduled open fault (or the crash
// switch) refuses it.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	if err := f.open.decide(); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

// Rename passes through unless crashed.
func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.dead(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove passes through unless crashed.
func (f *FS) Remove(name string) error {
	if err := f.dead(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// MkdirAll passes through unless crashed.
func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.dead(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

// Stat passes through unless crashed.
func (f *FS) Stat(name string) (os.FileInfo, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

// ReadDir passes through unless crashed.
func (f *FS) ReadDir(name string) ([]os.DirEntry, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// faultFile injects write and sync faults on one open handle.
type faultFile struct {
	fs    *FS
	inner wal.File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.fs.dead(); err != nil {
		return 0, err
	}
	return ff.inner.Read(p)
}

// Write applies the write schedule. A torn failure writes a strict
// prefix (possibly empty) before reporting the error — the caller's
// frame is half on disk, exactly as after a power cut.
func (ff *faultFile) Write(p []byte) (int, error) {
	if err := ff.fs.dead(); err != nil {
		return 0, err
	}
	if err := ff.fs.write.decide(); err != nil {
		if ff.fs.cfg.TornWrite && len(p) > 0 {
			ff.fs.tornMu.Lock()
			cut := ff.fs.tornSrc.Intn(len(p))
			ff.fs.tornMu.Unlock()
			n, werr := ff.inner.Write(p[:cut])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.dead(); err != nil {
		return err
	}
	if err := ff.fs.sync.decide(); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	// Close works even after a crash: the handle teardown is the
	// process's, not the disk's.
	return ff.inner.Close()
}

// HardwareConfig schedules oracle-hardware faults.
type HardwareConfig struct {
	// Seed roots the fault-decision stream.
	Seed int64
	// Reads faults ForwardBatch/ForwardPowerBatch calls (one shared
	// schedule, in call order; one decision per batched call).
	Reads Plan
}

// Hardware wraps an oracle.Hardware with scheduled read faults. It
// faults the two batched reads the oracle serves every query with, so a
// chaos test drives the same path production does; a faulted call
// never reaches the device.
type Hardware struct {
	inner oracle.Hardware
	reads *injector
}

// NewHardware wraps hw with the scheduled faults.
func NewHardware(hw oracle.Hardware, cfg HardwareConfig) *Hardware {
	return &Hardware{
		inner: hw,
		reads: newInjector(cfg.Reads, rng.New(cfg.Seed).Split("faultinject:hw")),
	}
}

// ForwardBatch runs the forward reads unless a scheduled fault refuses
// the call.
func (h *Hardware) ForwardBatch(us [][]float64) ([][]float64, error) {
	if err := h.reads.decide(); err != nil {
		return nil, err
	}
	return h.inner.ForwardBatch(us)
}

// ForwardPowerBatch runs the fused reads unless a scheduled fault
// refuses the call.
func (h *Hardware) ForwardPowerBatch(us [][]float64) ([][]float64, []float64, error) {
	if err := h.reads.decide(); err != nil {
		return nil, nil, err
	}
	return h.inner.ForwardPowerBatch(us)
}

// Inputs returns the wrapped dimensionality.
func (h *Hardware) Inputs() int { return h.inner.Inputs() }

// Outputs returns the wrapped class count.
func (h *Hardware) Outputs() int { return h.inner.Outputs() }

// Crossbar returns the wrapped array.
func (h *Hardware) Crossbar() *crossbar.Crossbar { return h.inner.Crossbar() }

var _ oracle.Hardware = (*Hardware)(nil)

// TransportConfig schedules HTTP transport faults for SDK tests.
type TransportConfig struct {
	// Seed roots the fault-decision stream.
	Seed int64
	// RoundTrips faults whole request round trips.
	RoundTrips Plan
	// DropResponse delivers faulted requests to the server and then
	// discards the response — the worst transport failure for a
	// non-idempotent call: the work happened, the client cannot know.
	// When false, faulted requests fail before reaching the server.
	DropResponse bool
}

// Transport wraps an http.RoundTripper with scheduled faults.
type Transport struct {
	inner http.RoundTripper
	cfg   TransportConfig
	trips *injector

	// Faults counts injected round-trip failures (for test assertions).
	faults   int
	faultsMu sync.Mutex
}

// NewTransport wraps inner (nil = http.DefaultTransport).
func NewTransport(inner http.RoundTripper, cfg TransportConfig) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner: inner,
		cfg:   cfg,
		trips: newInjector(cfg.RoundTrips, rng.New(cfg.Seed).Split("faultinject:transport")),
	}
}

// Faults returns how many round trips were failed so far.
func (t *Transport) Faults() int {
	t.faultsMu.Lock()
	defer t.faultsMu.Unlock()
	return t.faults
}

// RoundTrip applies the schedule: a faulted round trip either never
// reaches the server or (DropResponse) reaches it and loses the answer.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := t.trips.decide(); err != nil {
		t.faultsMu.Lock()
		t.faults++
		t.faultsMu.Unlock()
		if t.cfg.DropResponse {
			resp, rerr := t.inner.RoundTrip(req)
			if rerr == nil {
				resp.Body.Close()
			}
			return nil, err
		}
		return nil, err
	}
	return t.inner.RoundTrip(req)
}

var _ http.RoundTripper = (*Transport)(nil)
