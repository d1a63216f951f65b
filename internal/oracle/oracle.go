// Package oracle implements the black-box query interface of the paper's
// Section IV: the attacked model (the "oracle") runs on a crossbar, and an
// attacker submits inputs and observes some combination of the predicted
// label, the raw output vector, and the power consumption — never the
// weights. Query accounting lives here so experiments can report attack
// cost in oracle queries exactly as the paper's Figure 5 does.
package oracle

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// Hardware is the device interface an Oracle queries: a crossbar-hosted
// network (the concrete *crossbar.Network) or any proxy in front of one,
// such as the service layer's query coalescer. The Crossbar accessor
// exposes the underlying array so power readings can be normalized to the
// paper's weight-unit convention.
type Hardware interface {
	// Forward returns the network output for input u.
	Forward(u []float64) ([]float64, error)
	// Power returns the read power consumed while processing u.
	Power(u []float64) (float64, error)
	// Predict returns the argmax class label for input u.
	Predict(u []float64) (int, error)
	// Inputs returns the input dimensionality.
	Inputs() int
	// Outputs returns the number of classes.
	Outputs() int
	// Crossbar returns the underlying programmed array.
	Crossbar() *crossbar.Crossbar
}

// ForwardPowerer is optionally implemented by Hardware that can serve a
// forward pass and its power measurement as one operation — one array
// read instead of two. The service layer's coalescer implements it so a
// power-measuring query costs a single batched round trip. Results must
// be bit-identical to calling Forward then Power in that order on a
// noise-free array.
type ForwardPowerer interface {
	ForwardPower(u []float64) ([]float64, float64, error)
}

// Compile-time check that the crossbar network satisfies Hardware.
var _ Hardware = (*crossbar.Network)(nil)

// Mode selects how much of the oracle's output a query reveals.
type Mode int

const (
	// LabelOnly reveals just the argmax class (paper Fig. 5 rows 1 and 3).
	LabelOnly Mode = iota + 1
	// RawOutput reveals the full output vector (rows 2 and 4).
	RawOutput
)

// ParseMode is the inverse of Mode.String, for CLI flags and JSON wire
// formats.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "label-only":
		return LabelOnly, nil
	case "raw-output":
		return RawOutput, nil
	default:
		return 0, fmt.Errorf("oracle: unknown mode %q (want label-only or raw-output)", s)
	}
}

// String returns the mode name used in reports.
func (m Mode) String() string {
	switch m {
	case LabelOnly:
		return "label-only"
	case RawOutput:
		return "raw-output"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MarshalJSON emits the mode name, the form experiment results carry on
// the wire.
func (m Mode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON accepts the mode name.
func (m *Mode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseMode(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Response is what one query reveals to the attacker.
type Response struct {
	// Label is the oracle's predicted class.
	Label int
	// Raw is the full output vector; nil in LabelOnly mode. It is an
	// independent copy owned by the caller — mutating it never affects
	// the oracle or other sessions.
	Raw []float64
	// Power is the measured crossbar power for this query in the paper's
	// normalized convention (Section II-B normalizes all voltages,
	// currents and conductances): physical watts divided by Vdd²·scale,
	// i.e. Σ_j u_j Σ_i |w_ij| for an ideal array. 0 when the oracle was
	// constructed without power measurement.
	Power float64
}

// ErrBudgetExhausted indicates the oracle's query budget has been spent;
// further queries are refused until ResetQueries.
var ErrBudgetExhausted = errors.New("oracle: query budget exhausted")

// ErrNonFinite indicates a query whose response would carry a
// non-finite raw output or power reading — an overflow (inputs near
// the float64 limit, say) that no response encoding can deliver. The
// oracle treats it as a hardware error: the query is refused and not
// charged.
var ErrNonFinite = errors.New("oracle: response not finite")

// Oracle wraps a crossbar-hosted network behind a query-counting
// interface. It is safe for concurrent use: the query counter is atomic
// and the budget admission check can never over-admit, so N goroutines
// hammering one oracle with budget B get exactly B responses. When
// PowerNoiseStd is set, concurrent queries draw instrument noise from one
// shared stream in arrival order — race-free, but the per-query noise
// values then depend on goroutine scheduling; fixed-seed replay of noisy
// power readings requires serial use.
type Oracle struct {
	hw           Hardware
	mode         Mode
	measurePower bool
	powerNoise   float64
	noiseSrc     *rng.Source
	noiseMu      sync.Mutex // guards noiseSrc under concurrent queries
	queries      atomic.Int64
	budget       int
}

// Config controls what an Oracle exposes.
type Config struct {
	// Mode selects label-only or raw-output responses.
	Mode Mode
	// MeasurePower attaches a power meter to every query.
	MeasurePower bool
	// PowerNoiseStd is the relative instrument noise on power readings;
	// requires Src when positive.
	PowerNoiseStd float64
	// Src supplies measurement noise randomness.
	Src *rng.Source
	// Budget caps the number of attacker queries; 0 means unlimited.
	// Exceeding it makes Query return ErrBudgetExhausted — useful for
	// enforcing the query-efficiency comparisons of Figure 5.
	Budget int
}

// New wraps hw as a query-counting oracle.
func New(hw Hardware, cfg Config) (*Oracle, error) {
	if hw == nil {
		return nil, errors.New("oracle: nil hardware network")
	}
	switch cfg.Mode {
	case LabelOnly, RawOutput:
	default:
		return nil, fmt.Errorf("oracle: unknown mode %v", cfg.Mode)
	}
	if cfg.PowerNoiseStd < 0 {
		return nil, fmt.Errorf("oracle: negative power noise %v", cfg.PowerNoiseStd)
	}
	if cfg.PowerNoiseStd > 0 && cfg.Src == nil {
		return nil, errors.New("oracle: power noise requires a random source")
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("oracle: negative query budget %d", cfg.Budget)
	}
	return &Oracle{
		hw: hw, mode: cfg.Mode, measurePower: cfg.MeasurePower,
		powerNoise: cfg.PowerNoiseStd, noiseSrc: cfg.Src, budget: cfg.Budget,
	}, nil
}

// Mode returns the configured disclosure mode.
func (o *Oracle) Mode() Mode { return o.mode }

// Inputs returns the input dimensionality.
func (o *Oracle) Inputs() int { return o.hw.Inputs() }

// Outputs returns the number of classes.
func (o *Oracle) Outputs() int { return o.hw.Outputs() }

// Queries returns the number of attacker queries charged so far. Under
// concurrent use this includes queries currently in flight (they hold a
// budget reservation until they either deliver a response or roll back).
func (o *Oracle) Queries() int { return int(o.queries.Load()) }

// ResetQueries zeroes the attacker query counter.
func (o *Oracle) ResetQueries() { o.queries.Store(0) }

// Budget returns the configured query cap (0 = unlimited).
func (o *Oracle) Budget() int { return o.budget }

// Remaining returns how many queries are left, or -1 when unlimited.
func (o *Oracle) Remaining() int {
	if o.budget == 0 {
		return -1
	}
	r := o.budget - int(o.queries.Load())
	if r < 0 {
		r = 0
	}
	return r
}

// reserve atomically claims one budget slot. The compare-and-swap loop
// makes admission exact under contention: the counter can never exceed
// the budget, so N racing goroutines against budget B get exactly B
// reservations and N-B ErrBudgetExhausted refusals.
func (o *Oracle) reserve() error {
	for {
		q := o.queries.Load()
		if o.budget > 0 && q >= int64(o.budget) {
			return ErrBudgetExhausted
		}
		if o.queries.CompareAndSwap(q, q+1) {
			return nil
		}
	}
}

// release returns a reserved budget slot after a failed query.
func (o *Oracle) release() { o.queries.Add(-1) }

// Query runs one attacker query against the oracle.
//
// Accounting contract: a query is charged if and only if it delivers a
// Response. The budget slot is reserved atomically up front and rolled
// back on any hardware error — including a power-read failure after a
// successful forward pass, and a response that is not finite
// (ErrNonFinite) — so Queries()/Remaining() always agree with
// the number of responses the attacker actually received, serially and
// under concurrency alike.
//
// The returned Response is owned by the caller: Raw is an independent
// copy, so mutating it cannot affect the oracle, the underlying
// hardware, or any other session sharing the same array.
func (o *Oracle) Query(u []float64) (Response, error) {
	if err := o.reserve(); err != nil {
		return Response{}, err
	}
	resp, err := o.execute(u)
	if err != nil {
		o.release()
		return Response{}, err
	}
	return resp, nil
}

// execute performs the hardware reads for one admitted query.
func (o *Oracle) execute(u []float64) (Response, error) {
	var (
		y   []float64
		p   float64
		err error
	)
	if o.measurePower {
		if fp, ok := o.hw.(ForwardPowerer); ok {
			// One fused read serves both observables (coalesced path).
			y, p, err = fp.ForwardPower(u)
		} else {
			y, err = o.hw.Forward(u)
			if err == nil {
				p, err = o.hw.Power(u)
			}
		}
	} else {
		y, err = o.hw.Forward(u)
	}
	if err != nil {
		return Response{}, err
	}
	resp := Response{Label: tensor.ArgMax(y)}
	if o.mode == RawOutput {
		resp.Raw = tensor.CloneVec(y)
	}
	if o.measurePower {
		if o.powerNoise > 0 {
			o.noiseMu.Lock()
			p *= 1 + o.noiseSrc.Normal(0, o.powerNoise)
			o.noiseMu.Unlock()
		}
		// Normalize to weight units (paper §II-B convention).
		xb := o.hw.Crossbar()
		vdd := xb.Config().Vdd
		resp.Power = p / (vdd * vdd * xb.Scale())
	}
	if !deliverable(resp) {
		return Response{}, ErrNonFinite
	}
	return resp, nil
}

// deliverable reports whether every field resp would deliver is finite:
// Raw is nil in LabelOnly mode and Power is 0 when unmeasured, so only
// the observables the session discloses are checked.
func deliverable(resp Response) bool {
	return tensor.AllFinite(resp.Raw) && !math.IsInf(resp.Power, 0) && !math.IsNaN(resp.Power)
}

// QuerySet holds the attacker's accumulated query data, ready for
// surrogate training: one row of U per query, matching rows of Y (targets)
// and entries of P (power).
type QuerySet struct {
	// U is the Q x N matrix of query inputs.
	U *tensor.Matrix
	// Y is the Q x M matrix of targets: raw outputs in RawOutput mode,
	// one-hot oracle labels in LabelOnly mode.
	Y *tensor.Matrix
	// P holds the power measurement per query (nil when power was not
	// measured).
	P []float64
	// Labels holds the oracle's predicted label per query.
	Labels []int
}

// Len returns the number of collected queries.
func (q *QuerySet) Len() int { return q.U.Rows() }

// Collect submits the first q rows of ds (after a shuffle drawn from src)
// to the oracle and assembles the attacker's training set. This mirrors
// the paper's protocol: queries are drawn from the training distribution,
// and responses plus power readings become the surrogate's dataset.
//
// If the oracle's budget runs out mid-collection, Collect fails with an
// error wrapping ErrBudgetExhausted and discards the partial rows — the
// attacker gets all q responses or none. The queries answered before the
// refusal remain charged (the oracle delivered them); only the refused
// query is free.
func Collect(o *Oracle, ds *dataset.Dataset, q int, src *rng.Source) (*QuerySet, error) {
	if q <= 0 {
		return nil, fmt.Errorf("oracle: query budget %d must be positive", q)
	}
	if q > ds.Len() {
		q = ds.Len()
	}
	sub := ds.SampleN(src, q)
	u := tensor.New(q, o.Inputs())
	y := tensor.New(q, o.Outputs())
	labels := make([]int, q)
	var p []float64
	if o.measurePower {
		p = make([]float64, q)
	}
	for i := 0; i < q; i++ {
		row := sub.X.Row(i)
		resp, err := o.Query(row)
		if err != nil {
			return nil, fmt.Errorf("oracle: query %d: %w", i, err)
		}
		u.SetRow(i, row)
		labels[i] = resp.Label
		if o.mode == RawOutput {
			y.SetRow(i, resp.Raw)
		} else {
			y.Set(i, resp.Label, 1)
		}
		if o.measurePower {
			p[i] = resp.Power
		}
	}
	return &QuerySet{U: u, Y: y, P: p, Labels: labels}, nil
}

// AccuracyOn evaluates the oracle network's clean accuracy on ds. This is
// the experimenter's (not the attacker's) measurement and does not count
// queries.
func (o *Oracle) AccuracyOn(ds *dataset.Dataset) (float64, error) {
	if ds.Len() == 0 {
		return 0, dataset.ErrEmpty
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		label, err := o.hw.Predict(ds.X.Row(i))
		if err != nil {
			return 0, err
		}
		if label == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}
