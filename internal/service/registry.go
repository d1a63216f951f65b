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

// Victim is one programmed network hosted by the service: the shared
// oracle hardware many attacker sessions and campaign jobs hit at once.
// The crossbar itself is read-only for noise-free devices; all query
// traffic is funneled through the victim's coalescing batcher so noisy
// (stateful) arrays are serialized and noise-free ones are served in
// fused batches.
type Victim struct {
	name  string
	net   *nn.Network
	hw    *crossbar.Network
	train *dataset.Dataset
	test  *dataset.Dataset

	batcher    *batcher
	sessionSeq atomic.Int64
	open       atomic.Int64 // currently open sessions

	cleanOnce sync.Once
	cleanAcc  float64
	cleanErr  error
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

// clean returns the victim's clean test accuracy, computed once. It goes
// through the batcher so noisy arrays stay serialized against session
// traffic.
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
