package main

import (
	"crypto/sha256"
	"math"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is shared: over a minute its
// speed drifts by a third or more, and every wall-clock figure drifts
// with it. A run therefore also times a fixed kernel that belongs to
// the benchmark (it calls no program code, so no change to the program
// can speed it up), on as many goroutines as there are callers, before
// every set-up and between chunks of each phase. A phase's times are
// scaled by refKernelMs / (the geometric mean kernel time at its
// breaks), set-up by the same over all of the pass's breaks: they read
// as milliseconds on the reference machine at its nominal speed. The
// report prints the raw figures and the factors beside them.

// refKernelMs is the kernel's typical time on the reference machine
// (2 cores, see README.md) at its nominal speed.
const refKernelMs = 20.0

// Calibration schedule.
const (
	phaseChunks      = 8 // each phase runs in this many chunks, callers synced between them
	samplesPerBreak  = 3 // kernel runs at each break
	kernelFloats     = 1 << 15
	kernelRounds     = 24
	kernelFormatRuns = 2000
)

// speedProbe collects kernel timings over a run.
type speedProbe struct {
	samples []float64 // ms, the fastest kernel run at each break
}

// kernelBufs are the kernel's working sets, one per goroutine,
// allocated once so the kernel never waits on the collector.
var kernelBufs = func() [callers][]float64 {
	var b [callers][]float64
	for k := range b {
		b[k] = make([]float64, kernelFloats)
	}
	return b
}()

// sample runs the kernel n times and keeps the fastest run: a run that
// overlapped the collector's background work or a stray wake-up is
// slower, never faster. The first sample of a probe runs the kernel
// once more beforehand, untimed, to fault its buffers in. Nothing else
// of the benchmark may run meanwhile.
func (p *speedProbe) sample(n int) {
	if len(p.samples) == 0 {
		runKernel()
	}
	best := math.Inf(1)
	for range n {
		start := time.Now()
		runKernel()
		best = min(best, ms(time.Since(start)))
	}
	p.samples = append(p.samples, best)
}

// runKernel runs the kernel on every caller's goroutine and waits.
func runKernel() {
	var wg sync.WaitGroup
	for k := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(kernelBufs[k])
		}()
	}
	wg.Wait()
}

// factor scales a measured time to the reference machine's speed. It
// uses the geometric mean of the breaks' timings: the host switches
// between fast and slow spells, and the mean follows the share of time
// spent in each, where a median would jump from one spell to the other.
func (p speedProbe) factor() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	var logs float64
	for _, x := range p.samples {
		logs += math.Log(x)
	}
	return refKernelMs / math.Exp(logs/float64(len(p.samples)))
}

// join pools several probes' timings.
func join(ps ...speedProbe) speedProbe {
	var all speedProbe
	for _, p := range ps {
		all.samples = append(all.samples, p.samples...)
	}
	return all
}

// kernelSink keeps the kernel's result alive.
var kernelSink struct {
	sync.Mutex
	v float64
}

// kernel is a fixed mix of the work the program does most: float
// arithmetic over a few hundred KB, float formatting and parsing (the
// JSON wire format) and hashing (the journal and provenance). It does
// not allocate.
func kernel(xs []float64) {
	for i := range xs {
		xs[i] = float64(i%97) * 1.0001
	}
	var acc float64
	var buf [64]byte
	for r := range kernelRounds {
		for i := 1; i < len(xs); i++ {
			xs[i] = xs[i]*0.999 + xs[i-1]*0.001
			acc += xs[i]
		}
		for i := range kernelFormatRuns {
			b := strconv.AppendFloat(buf[:0], xs[(i*31+r)%len(xs)]/7, 'g', -1, 64)
			// A string view of the bytes: ParseFloat's error keeps its
			// input, so string(b) would allocate; the error is dropped.
			f, _ := strconv.ParseFloat(unsafe.String(&b[0], len(b)), 64)
			acc += f
		}
		sum := sha256.Sum256(buf[:])
		acc += float64(sum[0])
	}
	kernelSink.Lock()
	kernelSink.v = math.Mod(kernelSink.v+acc, 1e9)
	kernelSink.Unlock()
}
