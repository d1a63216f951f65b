// Package trace models the *temporal* dimension of the crossbar power
// side channel. Practical mixed-signal accelerators do not apply analog
// input voltages directly: they stream each input value bit-serially over
// B cycles through 1-bit DACs and accumulate shifted partial sums
// digitally. Power is therefore a per-cycle waveform, not one number —
// and each cycle's supply current is Σ_j bit_jb · G_j for the binary bit
// plane b. A trace of a single known input yields B linear constraints on
// the column conductances instead of the one constraint the paper's
// static model provides, making trace-based recovery far more query-
// efficient. This package provides the bit-serial encoder, a trace
// recorder, and the least-squares trace analyzer.
package trace

import (
	"errors"
	"fmt"
	"math"

	"xbarsec/internal/linalg"
	"xbarsec/internal/rng"
	"xbarsec/internal/sidechannel"
	"xbarsec/internal/tensor"
)

// Encoder quantizes inputs in [0, 1] to Bits-bit fixed point and expands
// them into per-cycle binary bit planes (MSB first).
type Encoder struct {
	// Bits is the DAC resolution (1-16).
	Bits int
}

// NewEncoder validates the resolution.
func NewEncoder(bits int) (Encoder, error) {
	if bits < 1 || bits > 16 {
		return Encoder{}, fmt.Errorf("trace: DAC resolution %d out of [1,16]", bits)
	}
	return Encoder{Bits: bits}, nil
}

// Quantize returns the Bits-bit fixed-point approximation of u (values
// clamped into [0, 1]).
func (e Encoder) Quantize(u []float64) []float64 {
	levels := float64(int(1)<<e.Bits) - 1
	out := make([]float64, len(u))
	for j, v := range u {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out[j] = math.Round(v*levels) / levels
	}
	return out
}

// Encode expands u into Bits binary planes, MSB first: plane b holds bit
// (Bits-1-b) of each quantized value.
func (e Encoder) Encode(u []float64) [][]float64 {
	levels := int(1)<<e.Bits - 1
	codes := make([]int, len(u))
	for j, v := range u {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		codes[j] = int(math.Round(v * float64(levels)))
	}
	planes := make([][]float64, e.Bits)
	for b := 0; b < e.Bits; b++ {
		bit := e.Bits - 1 - b
		plane := make([]float64, len(u))
		for j, c := range codes {
			if c&(1<<bit) != 0 {
				plane[j] = 1
			}
		}
		planes[b] = plane
	}
	return planes
}

// Decode reconstructs the quantized value vector from bit planes.
func (e Encoder) Decode(planes [][]float64) ([]float64, error) {
	if len(planes) != e.Bits {
		return nil, fmt.Errorf("trace: got %d planes, want %d", len(planes), e.Bits)
	}
	n := len(planes[0])
	levels := float64(int(1)<<e.Bits) - 1
	out := make([]float64, n)
	for b, plane := range planes {
		if len(plane) != n {
			return nil, fmt.Errorf("trace: ragged plane %d", b)
		}
		weight := float64(int(1) << (e.Bits - 1 - b))
		for j, bit := range plane {
			if bit != 0 && bit != 1 {
				return nil, fmt.Errorf("trace: non-binary value %v in plane %d", bit, b)
			}
			out[j] += bit * weight
		}
	}
	for j := range out {
		out[j] /= levels
	}
	return out, nil
}

// Trace is one recorded per-cycle power waveform.
type Trace struct {
	// Cycles holds the measured power per bit-serial cycle, MSB first.
	Cycles []float64
}

// Recorder drives a power meter bit-serially and captures traces.
type Recorder struct {
	meter    sidechannel.PowerMeter
	enc      Encoder
	noiseStd float64
	src      *rng.Source
	queries  int
}

// NewRecorder wraps meter with a bit-serial driver. noiseStd is the
// relative per-cycle measurement noise; src may be nil when it is zero.
func NewRecorder(meter sidechannel.PowerMeter, bits int, noiseStd float64, src *rng.Source) (*Recorder, error) {
	if meter == nil {
		return nil, errors.New("trace: nil meter")
	}
	enc, err := NewEncoder(bits)
	if err != nil {
		return nil, err
	}
	if noiseStd < 0 {
		return nil, fmt.Errorf("trace: negative noise std %v", noiseStd)
	}
	if noiseStd > 0 && src == nil {
		return nil, errors.New("trace: noise requested but src is nil")
	}
	return &Recorder{meter: meter, enc: enc, noiseStd: noiseStd, src: src}, nil
}

// Queries returns the number of full bit-serial inferences recorded.
func (r *Recorder) Queries() int { return r.queries }

// Record runs one bit-serial inference of u and returns its power trace.
func (r *Recorder) Record(u []float64) (Trace, error) {
	if len(u) != r.meter.Inputs() {
		return Trace{}, fmt.Errorf("trace: input length %d, want %d", len(u), r.meter.Inputs())
	}
	planes := r.enc.Encode(u)
	cycles := make([]float64, len(planes))
	for b, plane := range planes {
		p, err := r.meter.Power(plane)
		if err != nil {
			return Trace{}, fmt.Errorf("trace: cycle %d: %w", b, err)
		}
		if r.noiseStd > 0 {
			p *= 1 + r.src.Normal(0, r.noiseStd)
		}
		cycles[b] = p
	}
	r.queries++
	return Trace{Cycles: cycles}, nil
}

// RecoverColumnSignals solves for the per-column power signals from
// recorded traces of known inputs. Every cycle of every trace contributes
// one linear equation P_cycle = Σ_j bit_j · s_j, so Q inputs yield Q·Bits
// equations — recovery needs only ceil(N/Bits) inferences instead of the
// static channel's N. The returned signals rank columns like the 1-norms
// (sidechannel.CalibrateColumnNorms applies unchanged).
func (r *Recorder) RecoverColumnSignals(inputs *tensor.Matrix) ([]float64, error) {
	if inputs == nil || inputs.Rows() == 0 {
		return nil, errors.New("trace: no inputs")
	}
	n := r.meter.Inputs()
	if inputs.Cols() != n {
		return nil, fmt.Errorf("trace: inputs have %d columns, want %d", inputs.Cols(), n)
	}
	rows := inputs.Rows() * r.enc.Bits
	if rows < n {
		return nil, fmt.Errorf("trace: %d trace cycles underdetermine %d columns", rows, n)
	}
	design := tensor.New(rows, n)
	rhs := make([]float64, rows)
	for q := 0; q < inputs.Rows(); q++ {
		tr, err := r.Record(inputs.Row(q))
		if err != nil {
			return nil, err
		}
		planes := r.enc.Encode(inputs.Row(q))
		for b, plane := range planes {
			row := q*r.enc.Bits + b
			design.SetRow(row, plane)
			rhs[row] = tr.Cycles[b]
		}
	}
	signals, err := linalg.LeastSquares(design, rhs)
	if err != nil {
		return nil, fmt.Errorf("trace: solving for signals: %w", err)
	}
	return signals, nil
}
