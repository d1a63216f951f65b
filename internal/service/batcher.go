package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xbarsec/internal/crossbar"
)

// ErrVictimClosed indicates a query against a victim whose batcher has
// been shut down (service closed or victim removed).
var ErrVictimClosed = errors.New("service: victim closed")

// batchRequest is one in-flight query travelling through a victim's
// coalescer. The submitting goroutine owns the request before submitAll
// sends it and after done fires; the flusher owns it in between. done
// is a WaitGroup rather than a channel: it lives inside the request, so
// a submission costs one allocation for all its requests.
type batchRequest struct {
	u         []float64
	wantPower bool
	y         []float64
	power     float64
	err       error
	done      sync.WaitGroup
}

// batcher coalesces concurrent queries against one victim into batched
// crossbar calls. A single background flusher drains everything queued
// since the previous flush and serves it with one ForwardBatch (plain
// queries) plus one fused ForwardPowerBatch (power-measuring queries) —
// so under load, N in-flight queries cost two batched array passes
// instead of N separate reads, and a noisy (stateful) array is
// automatically serialized without a per-read lock.
//
// Results are bit-identical to per-call reads for noise-free arrays (the
// batched kernels pin this); for noisy arrays the flusher's
// serialization makes results depend on arrival order, exactly as
// contended per-call reads would.
type batcher struct {
	hw   *crossbar.Network
	reqs chan *batchRequest
	stop chan struct{}
	exit chan struct{}

	sendMu sync.RWMutex
	closed bool

	// Serving statistics, exported via Service.Stats.
	requests atomic.Int64
	batches  atomic.Int64
	maxBatch atomic.Int64
	// queueDepthPeak is the deepest the request channel has been at
	// submit time — how close the coalescer has come to exerting
	// backpressure (the channel's capacity bounds it).
	queueDepthPeak atomic.Int64
}

// notePeak raises queueDepthPeak to depth if it exceeds the recorded
// high-water mark.
func (b *batcher) notePeak(depth int64) {
	for {
		m := b.queueDepthPeak.Load()
		if depth <= m || b.queueDepthPeak.CompareAndSwap(m, depth) {
			return
		}
	}
}

// queueDepth bounds how many requests can queue for one victim while a
// flush is in progress; further submits block until the flusher drains.
const queueDepth = 256

// newBatcher starts the flusher for hw.
func newBatcher(hw *crossbar.Network) *batcher {
	b := &batcher{
		hw:   hw,
		reqs: make(chan *batchRequest, queueDepth),
		stop: make(chan struct{}),
		exit: make(chan struct{}),
	}
	go b.loop()
	return b
}

// submitAll enqueues one request per input and blocks until all are
// served — the coalescer's one feed, a single query being a batch of
// one. The requests enter the flusher's channel contiguously in slice
// order, so with no interleaving traffic they ride one flush (or an
// ordered run of flushes, which serves a noisy array in exactly the
// same per-input order); either way the victim sees len(us) queries
// for a constant number of array passes instead of len(us) round
// trips. The inputs must stay unmutated until submitAll returns; each
// served y is backed by its flush's batch slab — per-request distinct,
// but cloned by the oracle layer before reaching attackers. Returns the
// first request error, if any.
func (b *batcher) submitAll(us [][]float64, wantPower bool) ([]batchRequest, error) {
	for _, u := range us {
		if len(u) != b.hw.Inputs() {
			// Reject before batching so one malformed query can never
			// fail the flush it would have ridden in.
			return nil, fmt.Errorf("service: query input length %d, want %d", len(u), b.hw.Inputs())
		}
	}
	rs := make([]batchRequest, len(us))
	b.sendMu.RLock()
	if b.closed {
		b.sendMu.RUnlock()
		return nil, ErrVictimClosed
	}
	for i, u := range us {
		r := &rs[i]
		r.u, r.wantPower = u, wantPower
		r.done.Add(1)
		b.reqs <- r
	}
	b.notePeak(int64(len(b.reqs)))
	b.sendMu.RUnlock()
	var err error
	for i := range rs {
		rs[i].done.Wait()
		if err == nil {
			err = rs[i].err
		}
	}
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// close stops the flusher after it drains every already-submitted
// request; later submits fail with ErrVictimClosed. Idempotent.
func (b *batcher) close() {
	b.sendMu.Lock()
	if b.closed {
		b.sendMu.Unlock()
		return
	}
	b.closed = true
	b.sendMu.Unlock()
	close(b.stop)
	<-b.exit
}

// loop is the flusher: it blocks for one request, then drains whatever
// else arrived and serves the whole set as one batch. Queries arriving
// during a flush buffer in the channel and form the next batch — the
// combining that makes throughput scale with the batch engine.
//
//xbar:hotpath
func (b *batcher) loop() {
	defer close(b.exit)
	// Flusher-private scratch, reused across flushes (the flusher is the
	// only goroutine touching it).
	var batch []*batchRequest
	var scratch flushScratch
	for {
		var first *batchRequest
		select {
		case first = <-b.reqs:
		case <-b.stop:
			// closed was set before stop closed and every successful
			// submit happened before closed was set, so the channel now
			// holds the complete set of unserved requests.
			for {
				select {
				case r := <-b.reqs:
					r.err = ErrVictimClosed
					r.done.Done()
				default:
					return
				}
			}
		}
		batch = append(batch[:0], first)
	drain:
		for {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		b.flush(batch, &scratch)
	}
}

// flushScratch holds the flusher's reusable partition and input buffers.
type flushScratch struct {
	plain, fused []*batchRequest
	us           [][]float64
}

// flush serves one coalesced batch: fused forward+power for the
// power-measuring requests, plain forward for the rest.
//
//xbar:hotpath
func (b *batcher) flush(batch []*batchRequest, sc *flushScratch) {
	b.batches.Add(1)
	b.requests.Add(int64(len(batch)))
	for {
		m := b.maxBatch.Load()
		if int64(len(batch)) <= m || b.maxBatch.CompareAndSwap(m, int64(len(batch))) {
			break
		}
	}
	plain, fused := sc.plain[:0], sc.fused[:0]
	for _, r := range batch {
		if r.wantPower {
			fused = append(fused, r)
		} else {
			plain = append(plain, r)
		}
	}
	sc.plain, sc.fused = plain, fused
	if len(plain) > 0 {
		us := sc.us[:0]
		for _, r := range plain {
			us = append(us, r.u)
		}
		sc.us = us
		ys, err := b.hw.ForwardBatch(us)
		for i, r := range plain {
			if err != nil {
				r.err = err
			} else {
				r.y = ys[i]
			}
		}
	}
	if len(fused) > 0 {
		us := sc.us[:0]
		for _, r := range fused {
			us = append(us, r.u)
		}
		sc.us = us
		ys, ps, err := b.hw.ForwardPowerBatch(us)
		for i, r := range fused {
			if err != nil {
				r.err = err
			} else {
				r.y, r.power = ys[i], ps[i]
			}
		}
	}
	for _, r := range batch {
		r.done.Done()
	}
}
