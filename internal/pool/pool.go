// Package pool provides the deterministic worker pool the experiment
// runners fan work across.
//
// Determinism contract: a work item is identified solely by its index i in
// [0, n). Callers must derive all randomness consumed by item i from that
// index (via rng.Source.Split / SplitN, never from a stream shared across
// items) and must write results only into the i-th slot of a caller-owned
// slice. Under that contract the assembled results are bit-identical for
// every worker count — including the inline workers == 1 path — because
// no value ever depends on goroutine scheduling order.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0) — the number of procs actually runnable, which
// unlike NumCPU respects an explicit GOMAXPROCS cap in quota-limited
// containers.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs fn(i) for every i in [0, n) across at most workers goroutines
// (0 = all runnable procs). Items are claimed from a shared counter, so
// uneven item costs balance automatically. With workers == 1 (or n == 1)
// fn runs inline on the calling goroutine — the serial reference path.
//
// Nesting Do inside a Do item is fine and deliberate in the experiment
// runners: the outer fan-out alone can leave procs idle when it has
// fewer items than procs, so inner loops fan out too. The worst case is
// workers² goroutines contending for the same procs — goroutines are
// cheap and results are scheduling-independent, so this trades a little
// scheduler churn for work conservation.
//
// A panic in any item is captured and re-raised on the calling goroutine
// after all workers drain, annotated with the lowest panicking index.
func Do(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	panics := make([]*itemPanic, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runItem(i, fn, panics)
			}
		}()
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("pool: item %d panicked: %v\nitem goroutine stack:\n%s", i, p.value, p.stack))
		}
	}
}

// itemPanic preserves a worker item's panic value together with the
// stack of the panicking goroutine, which would otherwise be lost when
// the panic is re-raised on the calling goroutine.
type itemPanic struct {
	value any
	stack []byte
}

// runItem isolates the per-item recover so a panicking item does not kill
// its worker goroutine before the remaining items run.
func runItem(i int, fn func(int), panics []*itemPanic) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = &itemPanic{value: r, stack: debug.Stack()}
		}
	}()
	fn(i)
}

// Gate bounds how many callers run a section at once — the admission
// control long-lived services put in front of expensive jobs. Unlike Do,
// which fans a fixed work list across workers and returns, a Gate is held
// open for the life of a server and admits arbitrary callers as slots
// free up; excess callers block in FIFO-ish channel order rather than
// failing.
type Gate struct {
	sem chan struct{}
}

// NewGate returns a gate admitting at most limit concurrent callers;
// limit <= 0 selects the runnable-proc count, as Workers.
func NewGate(limit int) *Gate {
	return &Gate{sem: make(chan struct{}, Workers(limit))}
}

// Limit returns the gate's admission cap.
func (g *Gate) Limit() int { return cap(g.sem) }

// RunErr blocks until a slot is free, runs fn, and releases the slot —
// also on panic — returning fn's error.
func (g *Gate) RunErr(fn func() error) error {
	g.sem <- struct{}{}
	defer func() { <-g.sem }()
	return fn()
}

// DoErr is Do for fallible items. Every item runs regardless of other
// items' failures (errors are exceptional in this codebase, so no
// cancellation machinery), and the returned error is the one with the
// lowest index — the same error the serial path would surface first —
// so error reporting is also independent of scheduling.
func DoErr(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	Do(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
