// Package service is the concurrent attack-campaign layer on top of the
// simulation stack: a sharded registry of programmed victim networks,
// per-attacker sessions with split randomness and atomically enforced
// query budgets, a per-victim coalescer that merges in-flight queries
// from all sessions into batched (and, for power queries, fused) array
// reads, and deterministic campaign/extraction jobs with a singleflight
// artifact cache. It is the first layer of this repository built to be
// hit by many clients at once; cmd/xbarserve exposes it over HTTP.
//
// Determinism contract: campaign and extraction jobs are pure functions
// of their spec (seeded via rng.Split, fanned out on the deterministic
// pool), so replays are bit-identical at any worker count and specs
// double as cache keys. Interactive session traffic against noise-free
// victims is bit-identical to per-call scalar serving regardless of how
// queries coalesce; only noisy (stateful) arrays make interleaved
// results depend on arrival order — exactly as the physical hardware
// would.
package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xbarsec/api"
	"xbarsec/internal/memo"
	"xbarsec/internal/pool"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
	"xbarsec/internal/wal"
)

// ErrServiceClosed indicates an operation on a closed service.
var ErrServiceClosed = errors.New("service: closed")

// Config sizes the service.
type Config struct {
	// Seed roots every stream the service derives (session noise, demo
	// victims); campaign jobs use their own spec seeds.
	Seed int64
	// Workers bounds the per-job fan-out (0 = all runnable procs).
	Workers int
	// MaxConcurrentJobs caps campaign/extraction jobs running at once
	// (0 = all runnable procs).
	MaxConcurrentJobs int
	// DefaultSessionBudget applies when a session is opened with
	// Budget == 0 (0 here means 10000).
	DefaultSessionBudget int
	// MaxCachedArtifactBytes bounds the artifact cache's approximate
	// resident bytes (0 = 256 MiB); the oldest artifacts are evicted
	// beyond it. The fixed entry bound (maxCachedArtifacts) alone cannot
	// protect the cache from unevenly sized artifacts — a full-scale
	// experiment render is megabytes while a campaign result is bytes.
	MaxCachedArtifactBytes int64
	// SessionTTL evicts sessions idle longer than this (0 = sessions
	// never expire). A background janitor sweeps at TTL/4 granularity;
	// an evicted session behaves exactly like a closed one (lookups
	// fail with ErrSessionUnknown, remaining budget is forfeited).
	SessionTTL time.Duration
	// MaxSessionsPerVictim caps concurrently open sessions per victim
	// (0 = unlimited); OpenSession fails with ErrSessionLimit beyond it.
	MaxSessionsPerVictim int
	// DataDir, when set, is searched for real MNIST/CIFAR files by
	// server-side experiment jobs.
	DataDir string
	// MaxExperimentJobs bounds the experiment-job table; the oldest
	// finished jobs are evicted beyond it (0 = 1024).
	MaxExperimentJobs int
	// StateDir, when set, roots the durable state (job journal +
	// artifact spill store). Only Open uses it; New ignores it and runs
	// memory-only.
	StateDir string
	// JournalFsync makes every journal append durable before the job is
	// accepted. cmd/xbarserve defaults it on; off trades the journal
	// tail on power loss for accept latency (kill -9 recovery is
	// unaffected — the page cache survives the process).
	JournalFsync bool
	// MaxJournalBytes bounds the job journal between compactions
	// (0 = 64 MiB); launches beyond it are refused with a typed
	// "unavailable" rather than accepted without durability.
	MaxJournalBytes int64
	// FS overrides the filesystem under the journal and spill store
	// (nil = the real one). The fault-injection harness uses it to
	// drive recovery paths with deterministic torn writes and crashes.
	FS wal.FS
	// Cluster, when set, makes this service one node of a static
	// multi-node deployment: requests for keys another node owns are
	// refused with a node_redirect the SDK follows, and missing
	// artifacts are fetched (and provenance-verified) from peers before
	// being recomputed. Nil = single-node, no routing.
	Cluster *ClusterConfig
}

// Service hosts victims, sessions, campaign jobs and experiment jobs.
type Service struct {
	cfg      Config
	root     *rng.Source
	victims  shardedMap[*Victim]
	sessions shardedMap[*Session]
	cache    *memo.Cache[any]
	gate     *pool.Gate
	jobs     *jobTable

	// Durable-mode state, nil under New (memory-only). See Open.
	journal *jobJournal
	spill   *memo.SpillStore

	// Cluster state, nil when Config.Cluster is unset. See cluster.go.
	cluster *clusterNode
	// pendingSync holds journaled campaign/extract launches whose
	// completion mark never landed (crash mid-compute), keyed by victim
	// name; Register drains a victim's entries the moment it appears.
	pendingMu   sync.Mutex
	pendingSync map[string][]journalRecord

	campaigns    atomic.Int64
	reaped       atomic.Int64
	failedJobs   atomic.Int64
	replayedJobs atomic.Int64
	closed       atomic.Bool
	janitorCh    chan struct{} // closed on Close to stop the session janitor
}

// maxCachedArtifacts bounds the artifact cache's entry count; the
// oldest completed artifacts are evicted FIFO beyond it.
const maxCachedArtifacts = 4096

// artifactWeight approximates one cached artifact's resident bytes for
// the cache's byte budget: the dominant payloads (an experiment's
// render and JSON, an extraction's signal slices) plus a fixed
// allowance for the struct itself.
func artifactWeight(v any) int64 {
	const base = 256
	switch a := v.(type) {
	case *CampaignResult:
		return base
	case *ExtractResult:
		return base + int64(len(a.Signals)+len(a.Norms))*8
	case *ExperimentResult:
		return base + int64(len(a.Render)+len(a.Result))
	default:
		return base
	}
}

// New returns an empty service. When Config.SessionTTL is set, a
// janitor goroutine reaps idle sessions until Close.
func New(cfg Config) *Service {
	if cfg.DefaultSessionBudget <= 0 {
		cfg.DefaultSessionBudget = 10000
	}
	if cfg.MaxCachedArtifactBytes <= 0 {
		cfg.MaxCachedArtifactBytes = 256 << 20
	}
	s := &Service{
		cfg:         cfg,
		root:        rng.New(cfg.Seed).Split("service"),
		cache:       memo.NewWeighted[any](maxCachedArtifacts, cfg.MaxCachedArtifactBytes, artifactWeight),
		gate:        pool.NewGate(cfg.MaxConcurrentJobs),
		jobs:        newJobTable(cfg.MaxExperimentJobs),
		pendingSync: map[string][]journalRecord{},
		janitorCh:   make(chan struct{}),
	}
	s.initCluster(cfg.Cluster)
	if cfg.SessionTTL > 0 {
		go s.sessionJanitor()
	}
	return s
}

// sessionJanitor periodically reaps idle sessions. Sweep granularity is
// TTL/4 (at least a millisecond), so a session lives at most ~1.25 TTL
// past its last query.
func (s *Service) sessionJanitor() {
	interval := s.cfg.SessionTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.janitorCh:
			return
		case now := <-ticker.C:
			s.ReapIdleSessions(now)
		}
	}
}

// ReapIdleSessions closes every session idle longer than the configured
// TTL as of now, returning how many it reaped. It is a no-op when no
// TTL is configured. Exposed so operators (and tests) can force a sweep
// without waiting for the janitor.
func (s *Service) ReapIdleSessions(now time.Time) int {
	if s.cfg.SessionTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.SessionTTL).UnixNano()
	// Two phases: collect stale ids under the shard read locks, then
	// remove outside them (remove takes the write lock). A query racing
	// the sweep is still served — budget accounting is the oracle's —
	// but its session may be reaped right after; with TTLs in seconds
	// and the race window in microseconds that is the intended "idle"
	// semantics, not a correctness hazard.
	var stale []string
	s.sessions.each(func(id string, sess *Session) {
		if sess.lastUsed.Load() < cutoff {
			stale = append(stale, id)
		}
	})
	reaped := 0
	for _, id := range stale {
		// remove is the linearization point: each session is reaped at
		// most once even when sweeps race with CloseSession.
		if sess, ok := s.sessions.remove(id); ok {
			sess.victim.open.Add(-1)
			reaped++
		}
	}
	s.reaped.Add(int64(reaped))
	return reaped
}

// Register adds a victim and starts its coalescer.
func (s *Service) Register(v *Victim) error {
	if s.isClosed() {
		return ErrServiceClosed
	}
	if v.batcher != nil {
		return fmt.Errorf("service: victim %q already attached to a service", v.name)
	}
	v.batcher = newBatcher(v.hw)
	if !s.victims.put(v.name, v) {
		v.batcher.close()
		v.batcher = nil
		return fmt.Errorf("service: victim %q: %w", v.name, ErrVictimExists)
	}
	// Close may have swept the registry between the entry check and the
	// put; re-checking after the put closes the race — either Close's
	// sweep saw this victim (and stopped its flusher; close is
	// idempotent) or we observe closed here and undo the registration.
	if s.isClosed() {
		s.victims.remove(v.name)
		v.batcher.close()
		v.batcher = nil
		return ErrServiceClosed
	}
	s.drainPendingSync(v.name)
	return nil
}

// drainPendingSync replays any journaled campaign/extract jobs waiting
// on this victim, in journal order, on one background goroutine. The
// jobs re-run through the normal compute paths — re-journaled, cached,
// written through to spill — so the crashed client's retry of the same
// spec is served from the artifact store instead of recomputed.
func (s *Service) drainPendingSync(victim string) {
	s.pendingMu.Lock()
	recs := s.pendingSync[victim]
	delete(s.pendingSync, victim)
	s.pendingMu.Unlock()
	if len(recs) == 0 {
		return
	}
	go func() {
		for _, rec := range recs {
			// Errors are the job's own (bad spec, closed service) and are
			// journaled as failures by the run path; recovery has no
			// client to report them to. The local variants skip ring
			// admission: a journaled job is this node's to finish even if
			// the membership changed across the restart.
			switch {
			case rec.Campaign != nil:
				_, _ = s.runCampaignJob(*rec.Campaign)
			case rec.Extract != nil:
				_, _ = s.runExtractJob(*rec.Extract)
			}
		}
	}()
}

// Victim looks up a registered victim.
func (s *Service) Victim(name string) (*Victim, error) {
	v, ok := s.victims.get(name)
	if !ok {
		return nil, fmt.Errorf("service: victim %q: %w", name, ErrVictimUnknown)
	}
	return v, nil
}

// Close shuts the service down: coalescers stop after draining, queued
// queries fail with ErrVictimClosed, the session janitor stops, new
// work is refused, and (in durable mode) the job journal is flushed and
// closed. Jobs still in flight keep running; their completion marks are
// simply not journaled anymore, which recovery treats as "unfinished" —
// re-launched and served from spill.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.janitorCh)
	s.victims.each(func(_ string, v *Victim) { v.batcher.close() })
	if s.journal != nil {
		_ = s.journal.close()
	}
}

func (s *Service) isClosed() bool { return s.closed.Load() }

// VictimStats is one victim's serving counters — served verbatim on the
// wire, so it is defined by the public protocol package.
type VictimStats = api.VictimStats

// Stats is a point-in-time service snapshot (the GET /v2/stats wire
// type).
type Stats = api.Stats

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Sessions:            s.sessions.size(),
		ReapedSessions:      s.reaped.Load(),
		Campaigns:           s.campaigns.Load(),
		ExperimentJobs:      s.jobs.size(),
		CachedArtifacts:     s.cache.Size(),
		CachedArtifactBytes: s.cache.Weight(),
		TensorBackend:       tensor.ActiveName(),
	}
	st.CacheHits, st.CacheMisses = s.cache.Stats()
	st.FailedJobs = s.failedJobs.Load()
	st.ReplayedJobs = s.replayedJobs.Load()
	if s.spill != nil {
		sp := s.spill.Stats()
		st.SpilledArtifacts = sp.Artifacts
		st.SpilledArtifactBytes = sp.Bytes
		st.SpillHits = sp.Hits
		// Every record lives inside its artifact's spill file.
		st.ProvenanceRecords = sp.Artifacts
	}
	if c := s.cluster; c != nil {
		st.NodeID = c.self.ID
		st.RingHash = c.ring.Hash()
		st.RedirectsIssued = c.redirects.Load()
		st.PeerFetches = c.peerFetches.Load()
		st.PeerFetchVerified = c.peerVerified.Load()
		st.PeerFetchRejected = c.peerRejected.Load()
	}
	for _, name := range s.victims.keys() {
		v, ok := s.victims.get(name)
		if !ok {
			continue
		}
		vs := VictimStats{
			Name:           v.name,
			Inputs:         v.Inputs(),
			Outputs:        v.Outputs(),
			Noisy:          v.Noisy(),
			Requests:       v.batcher.requests.Load(),
			Batches:        v.batcher.batches.Load(),
			MaxBatch:       v.batcher.maxBatch.Load(),
			QueueDepthPeak: v.batcher.queueDepthPeak.Load(),
			OpenSessions:   v.open.Load(),
		}
		st.Victims = append(st.Victims, vs)
		// Service-wide batcher aggregates: totals for the throughput
		// counters, maxima for the high-water marks.
		st.BatchFlushes += vs.Batches
		st.BatchedQueries += vs.Requests
		st.MaxBatch = max(st.MaxBatch, vs.MaxBatch)
		st.QueueDepthPeak = max(st.QueueDepthPeak, vs.QueueDepthPeak)
	}
	return st
}
