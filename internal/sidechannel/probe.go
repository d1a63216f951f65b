// Package sidechannel implements the attacker's view of the crossbar power
// channel: a measurement probe with optional instrument noise, exact
// column-1-norm extraction through basis queries (Section II-B of the
// paper), and query-efficient search strategies for locating the largest
// 1-norm without measuring every input (the optimization the paper's
// Section III closing remark sketches).
package sidechannel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/linalg"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// PowerMeter is anything whose power draw can be measured for a chosen
// input — in practice a crossbar.Network (the oracle hardware), but tests
// also use synthetic meters.
type PowerMeter interface {
	// Power returns the power consumed while processing u. It must not
	// retain or modify u: callers reuse one input vector across reads
	// (ExtractColumnSignals sets and resets one basis entry per read).
	Power(u []float64) (float64, error)
	// Inputs returns the input dimensionality.
	Inputs() int
}

// MeterFromCrossbar adapts a bare crossbar array to the PowerMeter
// interface.
func MeterFromCrossbar(x *crossbar.Crossbar) PowerMeter { return xbarMeter{x} }

type xbarMeter struct{ x *crossbar.Crossbar }

func (m xbarMeter) Power(u []float64) (float64, error) { return m.x.Power(u) }
func (m xbarMeter) Inputs() int                        { return m.x.Cols() }

// Probe is the attacker's measurement apparatus. It counts queries and can
// model instrument noise on top of whatever device noise the crossbar
// itself exhibits.
//
// The query counter is atomic, so goroutines may share a probe over a
// noise-free meter without racing. With instrument noise the shared
// noise stream is mutex-guarded: concurrent measurements are race-free
// but consume the stream in arrival order, so fixed-seed replay of noisy
// readings requires serial use.
type Probe struct {
	meter PowerMeter
	// NoiseStd is the relative instrument noise: each measurement is
	// multiplied by 1 + N(0, NoiseStd).
	noiseStd float64
	src      *rng.Source
	srcMu    sync.Mutex // guards src under concurrent measurements
	queries  atomic.Int64
}

// NewProbe wraps meter. noiseStd is the relative measurement noise; src
// may be nil when noiseStd is 0.
func NewProbe(meter PowerMeter, noiseStd float64, src *rng.Source) (*Probe, error) {
	if meter == nil {
		return nil, errors.New("sidechannel: nil meter")
	}
	if noiseStd < 0 {
		return nil, fmt.Errorf("sidechannel: negative noise std %v", noiseStd)
	}
	if noiseStd > 0 && src == nil {
		return nil, errors.New("sidechannel: noise requested but src is nil")
	}
	return &Probe{meter: meter, noiseStd: noiseStd, src: src}, nil
}

// Queries returns the number of power measurements taken so far.
func (p *Probe) Queries() int { return int(p.queries.Load()) }

// ResetQueries zeroes the query counter.
func (p *Probe) ResetQueries() { p.queries.Store(0) }

// Inputs returns the input dimensionality of the metered device.
func (p *Probe) Inputs() int { return p.meter.Inputs() }

// Measure returns one (possibly noisy) power measurement for input u.
// Only successful measurements count: a meter error leaves the query
// counter unchanged.
func (p *Probe) Measure(u []float64) (float64, error) {
	pw, err := p.meter.Power(u)
	if err != nil {
		return 0, err
	}
	p.queries.Add(1)
	if p.noiseStd > 0 {
		p.srcMu.Lock()
		pw *= 1 + p.src.Normal(0, p.noiseStd)
		p.srcMu.Unlock()
	}
	return pw, nil
}

// MeasureAveraged averages k repeated measurements of u to suppress noise.
func (p *Probe) MeasureAveraged(u []float64, k int) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("sidechannel: average count %d must be positive", k)
	}
	var sum float64
	for i := 0; i < k; i++ {
		v, err := p.Measure(u)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(k), nil
}

// ExtractColumnSignals measures the power for each basis input e_j (input
// j driven at full scale, all others grounded) and returns the N raw
// power readings. For an ideal crossbar these are Vdd²·G_j — an affine
// function of the column 1-norms ‖W_:,j‖₁, so their ranking equals the
// 1-norm ranking the attacks need. Exactly N queries are used (times
// repeats when repeats > 1). One basis vector serves every read: entry j
// is set for read j and reset after it, so an extraction allocates the
// same at any N.
func (p *Probe) ExtractColumnSignals(repeats int) ([]float64, error) {
	if repeats <= 0 {
		repeats = 1
	}
	n := p.meter.Inputs()
	out := make([]float64, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		v, err := p.MeasureAveraged(e, repeats)
		e[j] = 0
		if err != nil {
			return nil, fmt.Errorf("sidechannel: basis query %d: %w", j, err)
		}
		out[j] = v
	}
	return out, nil
}

// EstimateColumnSignalsLS recovers the per-column power signals from
// measurements of arbitrary (non-basis) inputs by least squares: since
// power is linear in the input, p(u) = Σ_j u_j·s_j, a set of Q >= N
// input/power pairs determines the signal vector s as the solution of
// U·s = p. This is the stealthier variant of ExtractColumnSignals — the
// attacker can ride along on natural-looking traffic instead of issuing
// conspicuous one-hot probe inputs (the paper's §II-B remark that "the
// unknown values of G_j can be determined through several observations of
// i_total for different input voltages").
func (p *Probe) EstimateColumnSignalsLS(inputs *tensor.Matrix) ([]float64, error) {
	if inputs == nil || inputs.Rows() == 0 {
		return nil, errors.New("sidechannel: no measurement inputs")
	}
	if inputs.Cols() != p.meter.Inputs() {
		return nil, fmt.Errorf("sidechannel: inputs have %d columns, want %d", inputs.Cols(), p.meter.Inputs())
	}
	if inputs.Rows() < inputs.Cols() {
		return nil, fmt.Errorf("sidechannel: need at least %d measurements, got %d", inputs.Cols(), inputs.Rows())
	}
	powers := make([]float64, inputs.Rows())
	for i := range powers {
		v, err := p.Measure(inputs.Row(i))
		if err != nil {
			return nil, fmt.Errorf("sidechannel: measurement %d: %w", i, err)
		}
		powers[i] = v
	}
	signals, err := linalg.LeastSquares(inputs, powers)
	if err != nil {
		return nil, fmt.Errorf("sidechannel: solving for column signals: %w", err)
	}
	return signals, nil
}

// CalibrateColumnNorms converts raw basis-query powers into absolute
// column 1-norm estimates given knowledge of the device configuration and
// array height (number of outputs M): ‖W_:,j‖₁ ≈ (P_j/Vdd² − 2M·GOff)/s.
// The programming scale s must be taken from the crossbar.
func CalibrateColumnNorms(signals []float64, cfg crossbar.DeviceConfig, outputs int, scale float64) []float64 {
	offset := 2 * float64(outputs) * cfg.GOff
	out := make([]float64, len(signals))
	for j, pw := range signals {
		gj := pw / (cfg.Vdd * cfg.Vdd)
		out[j] = (gj - offset) / scale
	}
	return out
}
