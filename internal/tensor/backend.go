package tensor

import (
	"fmt"
	"sync/atomic"
)

// Backend is a complete implementation of the hot kernel set. The package-
// level kernel functions (Gemm, GemmTA, ...) validate shapes and dispatch to
// the active backend, so backend methods may assume conforming shapes; a
// backend invoked directly with mismatched operands panics from a slice
// bounds check rather than a descriptive message.
//
// Two implementations exist:
//
//   - Reference(): the scalar loops this package started from. Bit-exact:
//     every destination element accumulates its contracted-dimension terms
//     in strictly increasing index order on a single accumulator chain (see
//     the determinism contract in gemm.go). All goldens and equivalence
//     tests are pinned against it byte-for-byte.
//
//   - NewFast(workers): row/column-partitioned parallelism via
//     internal/pool plus multi-accumulator unrolling of the contracted
//     dimension in the dot-oriented kernels (GemmTB, MatVecInto). The
//     partitioned kernels keep each destination element's chain intact, so
//     parallelism never changes a bit; the unrolled kernels split one
//     element's sum across four chains, which reorders the additions and is
//     therefore only tolerance-equal to Reference (see fast.go for the
//     bound). For a fixed input a fast backend returns the same bits at any
//     worker count — nondeterminism never enters, only a documented,
//     bounded deviation from the reference order.
//
// BitExact reports which side of that split a backend is on: tests and
// goldens compare byte-for-byte when the active backend is bit-exact and
// fall back to the tolerance contract otherwise.
type Backend interface {
	// Name identifies the backend ("reference", "fast") in flags, specs,
	// /v2/version and /v2/stats.
	Name() string
	// BitExact reports whether results are bit-identical to the scalar
	// reference loops.
	BitExact() bool

	Gemm(dst, a, b *Matrix)
	GemmTA(dst, a, b *Matrix)
	GemmTB(dst, a, b *Matrix)
	MatVecInto(dst []float64, m *Matrix, x []float64)
	VecMatInto(dst []float64, x []float64, m *Matrix)
	SGDMomentumStep(w, v, g *Matrix, mu, gs float64, decay bool, ws float64)
}

// backendRef wraps the interface value so the active backend can live in an
// atomic.Pointer (which requires a concrete element type).
type backendRef struct{ b Backend }

var activeBackend atomic.Pointer[backendRef]

func init() { activeBackend.Store(&backendRef{b: referenceBackend{}}) }

// Use installs b as the process-wide active backend and returns the
// previous one, so callers (tests, benchmarks) can restore it with a
// deferred Use. Selection is always explicit — a flag, a spec option, a
// test hook — never an environment read, per the detrand contract: the
// backend in effect is part of a run's configuration, not ambient state.
//
// Use is safe for concurrent use, but swapping backends while kernels are
// in flight mixes backends across calls; processes select a backend once
// at startup (xbarserve/xbarattack -fast) before any work is launched.
func Use(b Backend) Backend {
	if b == nil {
		panic("tensor: Use(nil) backend")
	}
	return activeBackend.Swap(&backendRef{b: b}).b
}

// Active returns the process-wide active backend (Reference() by default).
func Active() Backend { return activeBackend.Load().b }

// ActiveName returns the active backend's name — the value surfaced in
// /v2/version, /v2/stats and experiment spec options.
func ActiveName() string { return Active().Name() }

// Reference returns the bit-exact scalar backend, the process default.
func Reference() Backend { return referenceBackend{} }

// ByName resolves a backend selector string: "" and "reference" yield the
// bit-exact default, "fast" yields NewFast(0). Unknown names are an error
// (not a panic: selectors arrive over the wire in experiment specs).
func ByName(name string) (Backend, error) {
	switch name {
	case "", RefName:
		return Reference(), nil
	case FastName:
		return NewFast(0), nil
	default:
		return nil, fmt.Errorf("tensor: unknown backend %q (want %q or %q)", name, RefName, FastName)
	}
}

// Backend selector names, as they appear in flags, spec options and stats.
const (
	RefName  = "reference"
	FastName = "fast"
)

// referenceBackend is the scalar loop implementation — the bit-exactness
// anchor every other backend is validated against. Methods delegate to the
// shared range-parameterized kernels in gemm.go over the full index range.
type referenceBackend struct{}

func (referenceBackend) Name() string   { return RefName }
func (referenceBackend) BitExact() bool { return true }

func (referenceBackend) Gemm(dst, a, b *Matrix)   { gemmRows(dst, a, b, 0, a.rows) }
func (referenceBackend) GemmTA(dst, a, b *Matrix) { gemmTACols(dst, a, b, 0, b.cols) }
func (referenceBackend) GemmTB(dst, a, b *Matrix) { gemmTBRows(dst, a, b, 0, a.rows) }

func (referenceBackend) MatVecInto(dst []float64, m *Matrix, x []float64) {
	matVecRows(dst, m, x, 0, m.rows)
}

func (referenceBackend) VecMatInto(dst []float64, x []float64, m *Matrix) {
	vecMatCols(dst, x, m, 0, m.cols)
}

func (referenceBackend) SGDMomentumStep(w, v, g *Matrix, mu, gs float64, decay bool, ws float64) {
	sgdSpan(w, v, g, mu, gs, decay, ws, 0, len(w.data))
}
