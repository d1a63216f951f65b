package service

// The durability layer: a write-ahead job journal plus the disk spill
// tier behind the artifact cache. Every accepted experiment job is
// journaled before its goroutine launches and marked on completion; on
// startup Open replays the journal, restores every journaled job under
// its original id, and re-launches the unfinished ones — which is cheap
// for jobs that had completed, because their artifacts are served from
// the content-addressed spill store instead of recomputed. The jobs are
// pure functions of their specs (the repository's core determinism
// contract), which is what makes "re-launch" a correct recovery
// strategy: a job interrupted mid-run produces bit-identical results
// when run again.

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"xbarsec/internal/experiment"
	"xbarsec/internal/memo"
	"xbarsec/internal/tensor"
	"xbarsec/internal/wal"
)

// ErrUnavailable marks transient refusals: the server cannot durably
// accept the work right now (journal full or unwritable, disk full) but
// expects to recover. The HTTP layer maps it to the protocol's
// "unavailable" code with a Retry-After hint.
var ErrUnavailable = errors.New("service: temporarily unavailable")

// UnavailableError carries the refusal reason and the backoff hint.
type UnavailableError struct {
	// Reason says what the server cannot do.
	Reason string
	// RetryAfter is the suggested backoff in seconds.
	RetryAfter int
}

// Error renders the refusal.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("service: %s (retry after %ds)", e.Reason, e.RetryAfter)
}

// Unwrap ties the type to the ErrUnavailable sentinel for errors.Is.
func (e *UnavailableError) Unwrap() error { return ErrUnavailable }

// Journal record ops. A job's journal life is one "launch" record
// (carrying the spec) followed by at most one completion mark.
const (
	opLaunch = "launch"
	opDone   = "done"
	opFailed = "failed"
)

// journalRecord is the JSON payload of one WAL frame. Exactly one of
// Spec/Campaign/Extract is set on a launch record and identifies the
// job family; completion marks carry the ID alone. Campaign and extract
// jobs are synchronous (the requesting client holds the connection), so
// their journal ID is the artifact-cache key — recovery needs no poll
// handle for them, only the spec to recompute the artifact into spill.
type journalRecord struct {
	Op       string          `json:"op"`
	ID       string          `json:"id"`
	Spec     *ExperimentSpec `json:"spec,omitempty"`     // experiment launch only
	Campaign *CampaignSpec   `json:"campaign,omitempty"` // campaign launch only
	Extract  *ExtractSpec    `json:"extract,omitempty"`  // extract launch only
	Err      string          `json:"err,omitempty"`      // failed only
}

// victimName returns the victim a sync (campaign/extract) launch record
// targets, or "" for experiment records.
func (r journalRecord) victimName() string {
	switch {
	case r.Campaign != nil:
		return r.Campaign.Victim
	case r.Extract != nil:
		return r.Extract.Victim
	}
	return ""
}

// jobJournal serializes appends to the WAL (launches and completions
// race from many goroutines).
type jobJournal struct {
	mu sync.Mutex
	w  *wal.AtomicWriter
}

func (jn *jobJournal) append(rec journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: encoding journal record: %w", err)
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return jn.w.Append(payload)
}

func (jn *jobJournal) close() error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return jn.w.Close()
}

// Recovery reports what Open restored, so operators (and the kill-and-
// restart test) can see recovery happen without reading logs.
type Recovery struct {
	// TornJournalTail reports a torn/corrupt journal tail — the signature
	// of a crash mid-append. Records before the tear were recovered.
	TornJournalTail bool
	// ReplayedJobs is how many journaled jobs were restored under their
	// original ids.
	ReplayedJobs int
	// Relaunched is how many restored jobs were re-run through the
	// compute path (completed ones are served from spill, not recomputed).
	Relaunched int
	// FailedJobs is how many restored jobs had already failed and were
	// restored directly into the failed state.
	FailedJobs int
	// ReplayedCampaigns / ReplayedExtracts count journaled synchronous
	// jobs (campaign / extraction) found unfinished — launched but never
	// marked done or failed, the signature of a crash mid-compute. They
	// re-run automatically once their victim registers, landing their
	// artifacts in spill so the client's retry is served instantly.
	ReplayedCampaigns int
	ReplayedExtracts  int
	// SpilledArtifacts is the on-disk artifact inventory found at open.
	SpilledArtifacts int64
}

const defaultMaxJournalBytes = 64 << 20

// Open is New plus durability: it roots the job journal and the
// artifact spill store in Config.StateDir, replays any journal a
// previous process left (restoring its jobs) and compacts it into a
// fresh generation. The returned Recovery describes what was restored.
func Open(cfg Config) (*Service, *Recovery, error) {
	if cfg.StateDir == "" {
		return nil, nil, errors.New("service: Open requires Config.StateDir")
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = wal.OSFS{}
	}
	if err := fsys.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: creating state dir: %w", err)
	}
	spill, err := memo.OpenSpill(fsys, filepath.Join(cfg.StateDir, "spill"))
	if err != nil {
		return nil, nil, err
	}

	// Replay the previous generation into one table: each launch record
	// with the completion mark that folds into it (a failed mark wins
	// over a done one). Unparseable payloads (a future schema) are
	// skipped, not fatal — losing one job record must not brick the
	// server.
	type replayed struct {
		launch journalRecord
		mark   *journalRecord
	}
	launches := map[string]*replayed{}
	var order []string
	experiments := 0
	jpath := filepath.Join(cfg.StateDir, "jobs.wal")
	st, err := wal.Replay(fsys, jpath, func(b []byte) error {
		var rec journalRecord
		if json.Unmarshal(b, &rec) != nil || rec.ID == "" {
			return nil
		}
		r, seen := launches[rec.ID]
		switch {
		case rec.Op == opLaunch && !seen && (rec.Spec != nil || rec.Campaign != nil || rec.Extract != nil):
			launches[rec.ID] = &replayed{launch: rec}
			order = append(order, rec.ID)
			if rec.Spec != nil {
				experiments++
			}
		case (rec.Op == opDone || rec.Op == opFailed) && seen && (r.mark == nil || rec.Op == opFailed):
			r.mark = &rec
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	s := New(cfg)
	s.spill = spill
	// The next journal generation replaces the old log atomically at
	// Commit. The handle stays open — this is the live journal now.
	aw, err := wal.CreateAtomic(fsys, jpath, wal.Options{
		Fsync:    cfg.JournalFsync,
		MaxBytes: cfg.maxJournalBytes(),
	})
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	keep := func(rec journalRecord) error {
		payload, err := json.Marshal(rec)
		if err == nil {
			err = aw.Append(payload)
		}
		return err
	}
	rec := &Recovery{
		TornJournalTail:  st.Torn,
		SpilledArtifacts: spill.Stats().Artifacts,
	}
	// One pass in journal order compacts and restores every job:
	//   - Experiment jobs, at most the job-table bound, newest first —
	//     the same FIFO discipline the live table applies; a dropped job
	//     loses its poll handle, not its spec-addressed artifact. Each is
	//     rewritten with its mark and restored under its original id:
	//     failed ones failed, the rest re-run once the new journal is
	//     live, where a completed spec hits spill instead of recomputing.
	//   - Campaign and extract launches. A finished one is dropped: its
	//     artifact lives in spill under the same key and its client is
	//     long gone. An unfinished one is rewritten — another crash before
	//     its re-run completes must still replay it — and waits in
	//     pendingSync until Register drains its victim (campaigns need
	//     trained data splits, which register after Open).
	skip := experiments - s.jobs.bound
	var relaunch []*ExperimentJob
	for _, id := range order {
		r := launches[id]
		switch {
		case r.launch.Spec == nil && r.mark != nil:
			continue
		case r.launch.Spec != nil && skip > 0:
			skip--
			continue
		}
		err := keep(r.launch)
		if err == nil && r.mark != nil {
			err = keep(*r.mark)
		}
		if err != nil {
			_ = aw.Abort()
			s.Close()
			return nil, nil, fmt.Errorf("service: compacting journal: %w", err)
		}
		if r.launch.Spec == nil {
			name := r.launch.victimName()
			s.pendingSync[name] = append(s.pendingSync[name], r.launch)
			if r.launch.Campaign != nil {
				rec.ReplayedCampaigns++
			} else {
				rec.ReplayedExtracts++
			}
			continue
		}
		job := &ExperimentJob{id: id, spec: *r.launch.Spec, done: make(chan struct{})}
		if err := s.jobs.addExisting(job); err != nil {
			continue
		}
		s.replayedJobs.Add(1)
		rec.ReplayedJobs++
		if r.mark != nil && r.mark.Op == opFailed {
			msg := r.mark.Err
			if msg == "" {
				msg = "job failed before restart"
			}
			job.err = errors.New(msg)
			close(job.done)
			s.failedJobs.Add(1)
			rec.FailedJobs++
			continue
		}
		rec.Relaunched++
		relaunch = append(relaunch, job)
	}
	if err := aw.Commit(); err != nil {
		_ = aw.Abort()
		s.Close()
		return nil, nil, err
	}
	s.journal = &jobJournal{w: aw}
	for _, job := range relaunch {
		s.runJob(job)
	}
	return s, rec, nil
}

func (c Config) maxJournalBytes() int64 {
	if c.MaxJournalBytes > 0 {
		return c.MaxJournalBytes
	}
	return defaultMaxJournalBytes
}

// journalLaunch persists a job acceptance — an experiment job before
// its goroutine exists, a campaign/extract job before its compute
// starts. Failure refuses the work: accepting a job the journal cannot
// record would silently break the restart-safety contract.
func (s *Service) journalLaunch(rec journalRecord) error {
	if s.journal == nil {
		return nil
	}
	err := s.journal.append(rec)
	if err == nil {
		return nil
	}
	reason := "job journal unwritable"
	retry := 10
	if errors.Is(err, wal.ErrFull) {
		// The journal compacts at restart; until then the table is the
		// bound that has been hit, so back off longer.
		reason = "job journal full"
		retry = 30
	}
	return fmt.Errorf("%w: %w", &UnavailableError{Reason: reason, RetryAfter: retry}, err)
}

// journalFinish records a job's completion mark. Errors are swallowed:
// a lost completion mark only means the job is re-launched on the next
// restart, where it is served from spill — re-deriving the mark is
// strictly cheaper than failing completed work retroactively.
func (s *Service) journalFinish(id string, jobErr error) {
	if s.journal == nil {
		return
	}
	rec := journalRecord{Op: opDone, ID: id}
	if jobErr != nil {
		rec.Op, rec.Err = opFailed, jobErr.Error()
	}
	_ = s.journal.append(rec)
}

// serveArtifact is the one path every cacheable artifact takes, in
// this order: the memory cache, whose singleflight collapses identical
// concurrent requests onto one flight; the spill store; peer, when
// non-nil (experiments ask cluster peers); the journal launch record,
// when launch is non-nil (a campaign or extraction; experiment jobs are
// journaled by LaunchExperiment); the gated compute; write-through to
// spill, so a crash right after never forces a recompute; and the
// completion mark. cached reports a memory, spill or peer hit. A failed
// flight, a refused journal append included, is not cached, so a retry
// starts over. The returned artifact is shared with every later caller.
func serveArtifact[T any](s *Service, key string, launch *journalRecord, peer func(key string) *T, compute func() (*T, error)) (*T, bool, error) {
	// hit is only written by the one computing flight (cache.Do is
	// singleflight) and only read after Do returns in that same caller.
	var hit bool
	val, cached, err := s.cache.Do(key, func() (any, error) {
		if res := spillLoad[T](s, key); res != nil {
			hit = true
			return res, nil
		}
		if peer != nil {
			if res := peer(key); res != nil {
				hit = true
				return res, nil
			}
		}
		if launch != nil {
			if err := s.journalLaunch(*launch); err != nil {
				return nil, err
			}
		}
		res, err := gated(s, compute)
		if err == nil {
			s.spillArtifact(key, res)
		}
		if launch != nil {
			s.journalFinish(launch.ID, err)
		}
		return res, err
	})
	if err != nil {
		return nil, false, err
	}
	return val.(*T), cached || hit, nil
}

// gated runs compute under the service's job gate, so at most
// Config.MaxConcurrentJobs artifacts compute at once.
func gated[T any](s *Service, compute func() (*T, error)) (*T, error) {
	var res *T
	err := s.gate.RunErr(func() (err error) {
		res, err = compute()
		return err
	})
	return res, err
}

// codeIdentity is the code half of every artifact's identity, the
// code-link preimage of its provenance record: the digest of the
// committed goldens (what this build computes) plus the active tensor
// backend, read per call because tensor.Use runs at startup. Artifacts
// recorded under another identity are never served here, from disk or
// from a peer.
func codeIdentity() string {
	return "goldens:" + experiment.GoldensDigest() + "|tensor:" + tensor.ActiveName()
}

// spillArtifact persists one artifact with its provenance record,
// best-effort: a full disk degrades the server to memory-only caching
// rather than failing the computation that produced the artifact.
func (s *Service) spillArtifact(key string, val any) {
	if s.spill == nil {
		return
	}
	payload, err := json.Marshal(val)
	if err != nil {
		return
	}
	_ = s.spill.Put(key, codeIdentity(), payload)
}

// spillLoad reloads a typed artifact from the spill store; nil on any
// miss, failed check (quarantined inside the store) or decode failure —
// every failure path degrades to recomputation, never a wrong result.
func spillLoad[T any](s *Service, key string) *T {
	if s.spill == nil {
		return nil
	}
	payload, _, ok, err := s.spill.Get(key, codeIdentity())
	if err != nil || !ok {
		return nil
	}
	var v T
	if json.Unmarshal(payload, &v) != nil {
		return nil
	}
	return &v
}
