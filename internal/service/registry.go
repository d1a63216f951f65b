package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
	"xbarsec/internal/rng"
)

// ErrVictimExists indicates a Register with an already-taken name.
var ErrVictimExists = errors.New("service: victim already registered")

// ErrVictimUnknown indicates a lookup for an unregistered victim.
var ErrVictimUnknown = errors.New("service: unknown victim")

// ErrVictimClosed indicates a query against a victim whose service has
// been closed.
var ErrVictimClosed = errors.New("service: victim closed")

// Victim is one programmed network hosted by the service: the shared
// oracle hardware many attacker sessions and campaign jobs hit at once.
// Every query reads the array on the goroutine that asks, through the
// victim's read guard: a noise-free array is read-only and serves its
// readers in parallel, while a noisy (stateful) array serves one
// submission at a time.
type Victim struct {
	name  string
	net   *nn.Network
	hw    *crossbar.Network
	train *dataset.Dataset
	test  *dataset.Dataset

	reads      *readGuard // set by Register
	sessionSeq atomic.Int64
	open       atomic.Int64 // currently open sessions

	cleanOnce sync.Once
	cleanAcc  float64
	cleanErr  error
}

// readGuard orders one victim's array reads against Close and, on a
// noisy array, against each other. Batched reads of a noise-free array
// are safe for concurrent use, so they only share mu. A noisy array's
// reads consume its noise stream, so each submission also holds serial
// for its whole run of rows: concurrent submissions never interleave.
type readGuard struct {
	mu     sync.RWMutex // held shared by every read, exclusively by close
	closed bool
	noisy  bool
	serial sync.Mutex

	inFlight atomic.Int64

	// Serving statistics, exported via Service.Stats.
	requests       atomic.Int64 // rows read
	batches        atomic.Int64 // array reads, one per submission
	maxBatch       atomic.Int64 // the largest read
	queueDepthPeak atomic.Int64 // most reads in flight at once, waiting or reading
}

// begin admits one submission of n rows. It fails with ErrVictimClosed
// once close has run; otherwise the caller reads the array and then
// calls end.
//
//xbar:hotpath
func (g *readGuard) begin(n int) error {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return ErrVictimClosed
	}
	raiseMax(&g.queueDepthPeak, g.inFlight.Add(1))
	if g.noisy {
		g.serial.Lock()
	}
	g.batches.Add(1)
	g.requests.Add(int64(n))
	raiseMax(&g.maxBatch, int64(n))
	return nil
}

// end releases what begin took.
func (g *readGuard) end() {
	if g.noisy {
		g.serial.Unlock()
	}
	g.inFlight.Add(-1)
	g.mu.RUnlock()
}

// close waits for the reads in flight and fails every later one with
// ErrVictimClosed. Idempotent.
func (g *readGuard) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}

// raiseMax raises m to v if v exceeds it.
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// beginRead checks a submission's input lengths before any read, so a
// malformed query never reaches the array or its counters, then admits
// it through the read guard. A nil error must be paired with
// v.reads.end().
func (v *Victim) beginRead(us [][]float64) error {
	for _, u := range us {
		if len(u) != v.hw.Inputs() {
			return fmt.Errorf("service: query input length %d, want %d", len(u), v.hw.Inputs())
		}
	}
	return v.reads.begin(len(us))
}

// NewVictim bundles a trained network, its crossbar realization and the
// data splits campaigns draw queries from. train and test may be nil for
// session-only victims; campaigns against such a victim are refused.
func NewVictim(name string, net *nn.Network, hw *crossbar.Network, train, test *dataset.Dataset) (*Victim, error) {
	if name == "" {
		return nil, errors.New("service: empty victim name")
	}
	if hw == nil {
		return nil, errors.New("service: nil victim hardware")
	}
	if train != nil && train.Dim() != hw.Inputs() {
		return nil, fmt.Errorf("service: train dim %d != hardware inputs %d", train.Dim(), hw.Inputs())
	}
	if test != nil && test.Dim() != hw.Inputs() {
		return nil, fmt.Errorf("service: test dim %d != hardware inputs %d", test.Dim(), hw.Inputs())
	}
	return &Victim{name: name, net: net, hw: hw, train: train, test: test}, nil
}

// Name returns the victim's registry key.
func (v *Victim) Name() string { return v.name }

// Inputs returns the input dimensionality.
func (v *Victim) Inputs() int { return v.hw.Inputs() }

// Outputs returns the number of classes.
func (v *Victim) Outputs() int { return v.hw.Outputs() }

// Noisy reports whether the victim's array draws per-read noise (making
// every read stateful).
func (v *Victim) Noisy() bool { return v.hw.Noisy() }

// Hardware returns the victim's crossbar network.
func (v *Victim) Hardware() *crossbar.Network { return v.hw }

// Train returns the victim's training split (nil for session-only
// victims). Campaign queries are drawn from it, mirroring the paper's
// protocol.
func (v *Victim) Train() *dataset.Dataset { return v.train }

// Test returns the victim's test split (nil for session-only victims).
func (v *Victim) Test() *dataset.Dataset { return v.test }

// clean returns the victim's clean test accuracy, computed once. A noisy
// array is read through the read guard, so it stays serialized against
// session traffic.
func (v *Victim) clean() (float64, error) {
	v.cleanOnce.Do(func() {
		if v.test == nil || v.test.Len() == 0 {
			v.cleanErr = errors.New("service: victim has no test split")
			return
		}
		labels, err := predictAll(v, v.test.Rows())
		if err != nil {
			v.cleanErr = err
			return
		}
		correct := 0
		for i, l := range labels {
			if l == v.test.Labels[i] {
				correct++
			}
		}
		v.cleanAcc = float64(correct) / float64(v.test.Len())
	})
	return v.cleanAcc, v.cleanErr
}

// VictimSpec describes a demo victim to train and program from scratch:
// a linear+MSE single-layer network on one of the synthetic dataset
// families, the configuration of the paper's Section IV black-box attack.
type VictimSpec struct {
	// Name is the registry key; defaults to the kind name.
	Name string
	// Kind selects the dataset family (dataset.MNIST or dataset.CIFAR10).
	Kind dataset.Kind
	// Seed drives data generation, training and programming.
	Seed int64
	// TrainN and TestN size the splits (0 = 600/200).
	TrainN, TestN int
	// Epochs is the victim's training length (0 = 30).
	Epochs int
	// DataDir, when set, is searched for real MNIST/CIFAR files.
	DataDir string
	// Device is the crossbar device model; zero value = ideal default.
	Device crossbar.DeviceConfig
}

// TrainVictim builds a demo victim end to end: load (or synthesize) the
// data, train the software network, program it onto a crossbar.
// Deterministic given the spec.
func TrainVictim(spec VictimSpec) (*Victim, error) {
	if spec.Name == "" {
		spec.Name = spec.Kind.String()
	}
	if spec.TrainN <= 0 {
		spec.TrainN = 600
	}
	if spec.TestN <= 0 {
		spec.TestN = 200
	}
	if spec.Epochs <= 0 {
		spec.Epochs = 30
	}
	if spec.Device == (crossbar.DeviceConfig{}) {
		spec.Device = crossbar.DefaultDeviceConfig()
	}
	src := rng.New(spec.Seed).Split("victim:" + spec.Name)
	train, test, err := dataset.Load(spec.Kind, src.Split("data"), dataset.LoadOptions{
		DataDir: spec.DataDir, TrainN: spec.TrainN, TestN: spec.TestN,
	})
	if err != nil {
		return nil, fmt.Errorf("service: loading %s: %w", spec.Kind, err)
	}
	tc := nn.TrainConfig{Epochs: spec.Epochs, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9, ZeroInit: true}
	if spec.Kind == dataset.CIFAR10 {
		// Dense 3072-dim inputs need a far smaller MSE learning rate
		// (see experiment.trainCfgFor's rationale).
		tc.LearningRate = 0.001
		tc.WeightDecay = 0.05
	}
	net, _, err := nn.TrainNew(train, nn.ActLinear, nn.LossMSE, tc, src.Split("train"))
	if err != nil {
		return nil, fmt.Errorf("service: training %s: %w", spec.Name, err)
	}
	var devSrc *rng.Source
	if spec.Device.ProgramNoiseStd > 0 || spec.Device.StuckFraction > 0 || spec.Device.ReadNoiseStd > 0 {
		devSrc = src.Split("device")
	}
	hw, err := crossbar.NewNetwork(net, spec.Device, devSrc)
	if err != nil {
		return nil, fmt.Errorf("service: programming %s: %w", spec.Name, err)
	}
	return NewVictim(spec.Name, net, hw, train, test)
}

// shardCount is the registry fan-out. Victim and session lookups hash to
// one of these independently locked shards so a hot victim's query path
// never contends with registrations or other victims' lookups.
const shardCount = 16

// shardFor hashes a key onto a shard index.
func shardFor(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % shardCount)
}

// shardedMap is a string-keyed map sharded across independently locked
// buckets — the registry substrate for victims and sessions.
type shardedMap[T any] struct {
	shards [shardCount]struct {
		mu sync.RWMutex
		m  map[string]T
	}
}

// put stores val under key; it reports false (and stores nothing) when
// the key is taken.
func (s *shardedMap[T]) put(key string, val T) bool {
	sh := &s.shards[shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[string]T)
	}
	if _, ok := sh.m[key]; ok {
		return false
	}
	sh.m[key] = val
	return true
}

// get returns the value under key.
func (s *shardedMap[T]) get(key string) (T, bool) {
	sh := &s.shards[shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.m[key]
	return v, ok
}

// remove deletes key, returning the removed value.
func (s *shardedMap[T]) remove(key string) (T, bool) {
	sh := &s.shards[shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	return v, ok
}

// keys returns all keys in sorted order.
func (s *shardedMap[T]) keys() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.m {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// each calls fn for every entry (shard by shard, under the read lock).
func (s *shardedMap[T]) each(fn func(key string, val T)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			fn(k, v)
		}
		sh.mu.RUnlock()
	}
}

// size returns the entry count.
func (s *shardedMap[T]) size() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
