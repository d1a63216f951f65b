package oracle

import (
	"fmt"

	"xbarsec/internal/tensor"
)

// ForwardBatcher is optionally implemented by Hardware that can serve
// many forward passes as one batched operation — one array pass (or one
// coalesced round trip) instead of len(us) scalar reads. Results must
// be bit-identical to calling Forward per input in order on a
// noise-free array; on a noisy array they must consume the noise stream
// in exactly the per-input order. Both *crossbar.Network and the
// service layer's coalescer satisfy it.
type ForwardBatcher interface {
	ForwardBatch(us [][]float64) ([][]float64, error)
}

// ForwardPowerBatcher is the fused batched analogue of ForwardPowerer:
// both attacker observables for a whole batch in one operation.
type ForwardPowerBatcher interface {
	ForwardPowerBatch(us [][]float64) ([][]float64, []float64, error)
}

// reserveN atomically claims up to n budget slots, returning how many
// were granted — the prefix-admission analogue of reserve. Under
// contention the CAS loop keeps the counter exact: concurrent batches
// against remaining budget r are granted slots summing to at most r.
func (o *Oracle) reserveN(n int) int {
	if o.budget == 0 {
		o.queries.Add(int64(n))
		return n
	}
	for {
		q := o.queries.Load()
		free := int64(o.budget) - q
		if free <= 0 {
			return 0
		}
		grant := int64(n)
		if grant > free {
			grant = free
		}
		if o.queries.CompareAndSwap(q, q+grant) {
			return int(grant)
		}
	}
}

// releaseN returns n reserved budget slots after a failed batch.
func (o *Oracle) releaseN(n int) { o.queries.Add(-int64(n)) }

// QueryBatch runs the queries in us as one batched hardware operation,
// charging the budget per delivered response.
//
// Admission is an atomic prefix reservation: with r budget remaining,
// the first min(len(us), r) queries are admitted and answered — in
// input order, bit-identical to calling Query sequentially on the same
// hardware (noise-free and noisy alike, absent concurrent traffic) —
// and the rest are refused exactly as sequential calls after
// exhaustion would be. The returned slice holds one Response per
// admitted query; when any query was refused, err wraps
// ErrBudgetExhausted (so resps and err can both be non-nil).
//
// If the batched hardware read itself fails, or any admitted response
// is not finite (ErrNonFinite), every reservation is rolled back and no
// query is charged: the batch is all-or-nothing at the hardware level,
// the batched form of the accounting contract that a query is charged
// iff it delivers a response.
func (o *Oracle) QueryBatch(us [][]float64) ([]Response, error) {
	if len(us) == 0 {
		return nil, nil
	}
	n := o.reserveN(len(us))
	if n == 0 {
		return nil, ErrBudgetExhausted
	}
	resps, err := o.executeBatch(us[:n])
	if err != nil {
		o.releaseN(n)
		return nil, err
	}
	if n < len(us) {
		return resps, fmt.Errorf("oracle: batch queries %d..%d refused: %w", n, len(us)-1, ErrBudgetExhausted)
	}
	return resps, nil
}

// executeBatch performs the hardware reads for one admitted batch,
// preferring the batched interfaces and falling back to per-input reads
// in input order (same results, scalar cost) on hardware without them.
func (o *Oracle) executeBatch(us [][]float64) ([]Response, error) {
	var (
		ys  [][]float64
		ps  []float64
		err error
	)
	switch {
	case o.measurePower:
		if fpb, ok := o.hw.(ForwardPowerBatcher); ok {
			ys, ps, err = fpb.ForwardPowerBatch(us)
		} else {
			ys = make([][]float64, len(us))
			ps = make([]float64, len(us))
			for i, u := range us {
				if fp, ok := o.hw.(ForwardPowerer); ok {
					ys[i], ps[i], err = fp.ForwardPower(u)
				} else {
					ys[i], err = o.hw.Forward(u)
					if err == nil {
						ps[i], err = o.hw.Power(u)
					}
				}
				if err != nil {
					return nil, err
				}
			}
		}
	default:
		if fb, ok := o.hw.(ForwardBatcher); ok {
			ys, err = fb.ForwardBatch(us)
		} else {
			ys = make([][]float64, len(us))
			for i, u := range us {
				if ys[i], err = o.hw.Forward(u); err != nil {
					return nil, err
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	resps := make([]Response, len(us))
	if o.measurePower {
		if o.powerNoise > 0 {
			// One lock for the whole batch, draws applied in input order —
			// the exact stream consumption of sequential queries.
			o.noiseMu.Lock()
			for i := range ps {
				ps[i] *= 1 + o.noiseSrc.Normal(0, o.powerNoise)
			}
			o.noiseMu.Unlock()
		}
		xb := o.hw.Crossbar()
		vdd := xb.Config().Vdd
		norm := vdd * vdd * xb.Scale()
		for i := range resps {
			resps[i].Power = ps[i] / norm
		}
	}
	for i := range resps {
		resps[i].Label = tensor.ArgMax(ys[i])
		if o.mode == RawOutput {
			resps[i].Raw = tensor.CloneVec(ys[i])
		}
		if !deliverable(resps[i]) {
			return nil, fmt.Errorf("oracle: batch query %d: %w", i, ErrNonFinite)
		}
	}
	return resps, nil
}
