package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"
	"time"

	"xbarsec/client"
)

// caller is one closed-loop SDK caller: it sends its next request only
// after the previous one returned. Everything on it is touched by its
// own goroutine only.
type caller struct {
	id     int
	c      *client.Client
	tr     *tracer // nil when untraced
	parent int64   // the phase span op spans hang off
	class  string

	digest hash.Hash // this caller's replies, in op order
	acct   accounting
	failed []string // first few check failures, for the report
}

// accounting counts what the oracle charged against what the callers
// received, and the session churn, over one phase.
type accounting struct {
	charged, delivered int64
	sessionsOpened     int64
}

func (a *accounting) add(b accounting) {
	a.charged += b.charged
	a.delivered += b.delivered
	a.sessionsOpened += b.sessionsOpened
}

// call runs one SDK call as an op's timed region: from call to return,
// under a client.<name> span when tracing.
func (c *caller) call(ctx context.Context, name string, f func(context.Context) error) (time.Duration, error) {
	if c.tr == nil {
		start := time.Now()
		err := f(ctx)
		return time.Since(start), err
	}
	s := span{ID: c.tr.id(), Parent: c.parent, Name: "client." + name, Class: c.class}
	s.Start = c.tr.now()
	err := f(withSpan(ctx, s.ID, c.class))
	s.End = c.tr.now()
	c.tr.record(s)
	return s.dur(), err
}

// checkf records a failed output check; the op that made it fails.
func (c *caller) checkf(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if len(c.failed) < 3 {
		c.failed = append(c.failed, fmt.Sprintf("caller %d %s: %v", c.id, c.class, err))
	}
	return err
}

// Digest helpers: fixed-width, order-preserving encodings.
func putU(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
func putF(h hash.Hash, f float64) { putU(h, math.Float64bits(f)) }
func putFs(h hash.Hash, fs []float64) {
	putU(h, uint64(len(fs)))
	for _, f := range fs {
		putF(h, f)
	}
}
func putS(h hash.Hash, s string) {
	putU(h, uint64(len(s)))
	h.Write([]byte(s))
}

// opFunc runs op i of one class for one caller. It returns the op's
// timed duration (the SDK call alone) and an error when the call failed
// or its reply did not check out.
type opFunc func(ctx context.Context, c *caller, i int) (time.Duration, error)

// class is one homogeneous latency class: one op type on one victim.
type class struct {
	name      string // "light" or "heavy"
	op        string // what one op is, for the report
	perCaller int
	run       opFunc
	// verify runs after the phase, uncontended: the seeded sample of
	// replies compared bit-for-bit with the deeper layers.
	verify func() error
}

// phaseResult is one class's measured phase.
type phaseResult struct {
	class     string
	op        string
	lat       []float64 // ms per op, +Inf for failed ops
	attempted int
	failed    int
	wall      time.Duration
	digests   [][]byte // per caller
	acct      accounting
	problems  []string
	span      int64      // the phase span, when traced
	speed     speedProbe // kernel timings at the phase's breaks
	rssMB     float64    // peak RSS when the phase ended
}

// runPhase drives one class with every caller in a closed loop and
// waits for all of them. The phase runs in chunks; between chunks the
// callers are idle and, when calibrate is set, the speed kernel runs.
// The phase's wall time counts the chunks only.
func runPhase(ctx context.Context, cls *class, cs []*caller, calibrate bool) phaseResult {
	lats := make([][]float64, len(cs))
	for k, c := range cs {
		c.class = cls.name
		c.digest = sha256.New()
		c.acct = accounting{}
		lats[k] = make([]float64, cls.perCaller)
	}
	res := phaseResult{class: cls.name, op: cls.op}
	// Every phase starts from a collected heap, so the collector's
	// cycles fall at the same points of the phase's allocations in
	// every run instead of wherever set-up or the last phase left them.
	runtime.GC()
	chunks := min(phaseChunks, cls.perCaller)
	for j := range chunks {
		lo, hi := j*cls.perCaller/chunks, (j+1)*cls.perCaller/chunks
		start := time.Now()
		var wg sync.WaitGroup
		for k, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					d, err := cls.run(ctx, c, i)
					if err != nil {
						lats[k][i] = math.Inf(1)
						continue
					}
					lats[k][i] = ms(d)
				}
			}()
		}
		wg.Wait()
		res.wall += time.Since(start)
		if calibrate {
			res.speed.sample(samplesPerBreak)
		}
	}
	for k, c := range cs {
		for _, x := range lats[k] {
			res.attempted++
			if math.IsInf(x, 1) {
				res.failed++
			}
		}
		res.lat = append(res.lat, lats[k]...)
		res.digests = append(res.digests, c.digest.Sum(nil))
		res.acct.add(c.acct)
		res.problems = append(res.problems, c.failed...)
		c.failed = nil
	}
	res.rssMB = rssPeakMB()
	if cls.verify != nil {
		if err := cls.verify(); err != nil {
			res.problems = append(res.problems, "verify "+cls.name+": "+err.Error())
		}
	}
	return res
}

// workloadDigest folds every caller's per-class digest, in class and
// caller order, into one: it depends on each caller's replies in op
// order and not on how the callers interleaved.
func workloadDigest(name string, phases []phaseResult) string {
	h := sha256.New()
	putS(h, name)
	for _, p := range phases {
		putS(h, p.class)
		for _, d := range p.digests {
			h.Write(d)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
