// Package memo provides a bounded, singleflight memoization cache: the
// concurrency substrate shared by the service layer's artifact cache and
// the experiment engine's victim store. Both memoize values that are
// pure functions of a string key, so the first computation's result is
// every caller's result and concurrent identical requests must collapse
// onto a single computation instead of duplicating work. Its disk tier,
// SpillStore, keeps each artifact in one file together with the
// provenance record that proves it.
package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache memoizes computed values by their exact deterministic key and
// collapses concurrent identical requests onto a single computation
// (singleflight). The cache is bounded: beyond maxEntries — and, when a
// weight function is configured, beyond maxWeight total weight — the
// oldest completed values are evicted FIFO, so a caller sweeping
// distinct keys can cost compute but never unbounded memory. The
// entry-count bound alone cannot protect a cache of unevenly sized
// values (64 CIFAR victims are gigabytes; 64 campaign results are
// kilobytes); the weight bound makes the limit track what the values
// actually pin.
type Cache[V any] struct {
	mu         sync.Mutex
	entries    map[string]*entry[V]
	order      []string // insertion order, the FIFO eviction queue
	maxEntries int
	maxWeight  int64
	weigh      func(V) int64
	weight     int64 // total weight of completed, retained entries

	hits   atomic.Int64
	misses atomic.Int64
}

// PanicError is the error waiters and the panicking caller itself
// receive when a Do computation panics. Without it a panic would unwind
// past the close of the entry's ready channel and every joined waiter
// would block forever; with it a panic is just a failed computation —
// not cached, retryable, and attributable (the service layer maps it to
// a typed internal error on the job).
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

// Error renders the recovered panic.
func (p *PanicError) Error() string { return fmt.Sprintf("memo: compute panicked: %v", p.Value) }

type entry[V any] struct {
	ready  chan struct{}
	val    V
	err    error
	done   bool  // set under mu when the computation finished
	weight int64 // weigh(val), accounted while the entry is retained
}

// New returns a cache bounded to maxEntries values (<= 0 selects 4096)
// with no weight bound.
func New[V any](maxEntries int) *Cache[V] {
	return NewWeighted[V](maxEntries, 0, nil)
}

// NewWeighted returns a cache bounded both by entry count and — when
// weigh is non-nil and maxWeight is positive — by total value weight.
// weigh is called once per computed value, outside the cache lock; it
// must be cheap relative to the computation and must not mutate the
// value. The usual weight is an approximate byte size, making maxWeight
// a memory budget. A single value heavier than maxWeight is still
// computed and returned, but is evicted rather than retained.
func NewWeighted[V any](maxEntries int, maxWeight int64, weigh func(V) int64) *Cache[V] {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if weigh == nil {
		maxWeight = 0
	}
	return &Cache[V]{
		entries:    make(map[string]*entry[V]),
		maxEntries: maxEntries,
		maxWeight:  maxWeight,
		weigh:      weigh,
	}
}

// Do returns the cached value for key, computing it with compute on a
// miss. Concurrent callers with the same key wait for the one in-flight
// computation instead of duplicating it. Failed computations are not
// cached (the entry is removed so a later retry can succeed); waiters
// joined to a failed flight receive its error.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (val V, cached bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			var zero V
			return zero, false, e.err
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	e := &entry[V]{ready: make(chan struct{})}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.mu.Unlock()
	c.misses.Add(1)
	func() {
		// A panicking compute must not unwind past the bookkeeping below:
		// the ready channel would never close and every joined waiter
		// would block forever. Recover it into a typed error instead —
		// the flight fails like any other and is not cached.
		defer func() {
			if r := recover(); r != nil {
				e.err = &PanicError{Value: r}
			}
		}()
		e.val, e.err = compute()
	}()
	if e.err == nil && c.weigh != nil {
		e.weight = c.weigh(e.val)
	}
	c.mu.Lock()
	e.done = true
	// Only account for the entry this flight installed: after a Reset a
	// stale flight must neither evict a newer live entry that reused its
	// key nor charge its weight against the new generation's budget.
	if cur, ok := c.entries[key]; ok && cur == e {
		if e.err != nil {
			delete(c.entries, key)
			c.removeFromOrderLocked(key)
		} else {
			c.weight += e.weight
		}
	}
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return e.val, false, e.err
}

// removeFromOrderLocked drops key's entry from the eviction queue when
// its computation failed — otherwise repeated failures of one key would
// grow the queue without bound. Scans from the tail: the failing key
// was appended recently.
func (c *Cache[V]) removeFromOrderLocked(key string) {
	for i := len(c.order) - 1; i >= 0; i-- {
		if c.order[i] == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops the oldest completed values until the cache fits
// both its entry bound and (when configured) its weight bound. In-flight
// entries are never evicted (their waiters hold the entry anyway), and
// failed entries never linger in the queue (Do removes them), so the
// queue tracks the map exactly.
func (c *Cache[V]) evictLocked() {
	over := func() bool {
		return len(c.entries) > c.maxEntries ||
			(c.maxWeight > 0 && c.weight > c.maxWeight)
	}
	for over() && len(c.order) > 0 {
		k := c.order[0]
		if e, ok := c.entries[k]; ok {
			if !e.done {
				return
			}
			c.weight -= e.weight
			delete(c.entries, k)
		}
		c.order = c.order[1:]
	}
}

// Stats returns cumulative hit/miss counters.
func (c *Cache[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Size returns the number of cached values.
func (c *Cache[V]) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Weight returns the total weight of retained completed values (0 when
// the cache has no weight function).
func (c *Cache[V]) Weight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weight
}

// Reset drops every cached value and zeroes the counters. Tests and
// benchmarks use it to measure the cold path; in-flight computations
// finish but their results are no longer shared with later callers.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	c.entries = make(map[string]*entry[V])
	c.order = nil
	c.weight = 0
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}
