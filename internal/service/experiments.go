package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"xbarsec/api"
	// The experiment import is load-bearing twice over: its init
	// populates the engine registry this layer dispatches through, and
	// RunFig5 serves specs carrying typed fig5 options.
	"xbarsec/internal/experiment"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/tensor"
)

// The experiment-job layer turns every experiment in the engine
// registry into a server-side job: any registered grid can be launched,
// listed and polled remotely, with results memoized in the service's
// artifact cache. Registry experiments build their victims through the
// process-wide victim store, so repeated launches of the same spec —
// the common case for a result-serving deployment — cost one training
// and then memory reads.

// ErrExperimentUnknown indicates a launch for an unregistered
// experiment name.
var ErrExperimentUnknown = errors.New("service: unknown experiment")

// ErrJobUnknown indicates a poll for an unknown (or evicted) job.
var ErrJobUnknown = errors.New("service: unknown experiment job")

// ExperimentSpec fully determines one experiment job. Registry
// experiments are pure functions of (name, seed, scale, runs, options)
// plus the server's DataDir, so the spec doubles as the artifact-cache
// key; Workers is deliberately excluded (results are bit-identical at
// any worker count). It is served verbatim on the wire, so it is
// defined by the public protocol package.
type ExperimentSpec = api.ExperimentSpec

// specDefaults normalizes the spec so equivalent requests share one
// cache key: Scale 0 means full scale (the engine's Normalized
// contract), so {"scale":0} and {"scale":1} must not recompute; an
// all-default fig5 envelope means no fig5 options; a tensor-backend
// assertion this server satisfies is rewritten to its canonical
// spelling, so {"tensor_backend":""} and {"tensor_backend":"fast"} on
// a fast server are one spec (and the echoed result records which
// backend computed it); and an options envelope with nothing left in
// it means no options. The copy of *e.Options keeps the caller's
// envelope unmutated.
func specDefaults(e ExperimentSpec) ExperimentSpec {
	if e.Scale == 0 {
		e.Scale = 1
	}
	if e.Options != nil {
		o := *e.Options
		if f := o.Fig5; f != nil && len(f.Queries) == 0 && len(f.Lambdas) == 0 && f.SurrogateEpochs == 0 {
			o.Fig5 = nil
		}
		e.Options = &o
	}
	if canon := canonicalBackend(); e.Options == nil {
		if canon != "" {
			e.Options = &api.ExperimentOptions{TensorBackend: canon}
		}
	} else if tb := e.Options.TensorBackend; (tb == "" || tb == tensor.ActiveName()) && tb != canon {
		e.Options.TensorBackend = canon
	}
	if e.Options != nil && *e.Options == (api.ExperimentOptions{}) {
		e.Options = nil
	}
	return e
}

// canonicalBackend is the canonical ExperimentOptions.TensorBackend
// spelling for specs this server satisfies: "" under the bit-exact
// reference default — so pre-v2.1 specs, their journal records and
// their spilled artifacts keep their historical identity — and the
// backend name otherwise.
func canonicalBackend() string {
	if n := tensor.ActiveName(); n != tensor.RefName {
		return n
	}
	return ""
}

// backendKeySuffix distinguishes artifacts computed under a
// non-reference tensor backend in every cache/spill key. Reference
// keys keep their historical (unsuffixed) form, so artifacts spilled
// by pre-v2.1 servers stay servable; non-bit-exact artifacts never
// collide with them across restarts that change the serving mode.
func backendKeySuffix() string {
	if canon := canonicalBackend(); canon != "" {
		return "|tb:" + canon
	}
	return ""
}

// fig5OptionsOf extracts the typed fig5 options, nil when absent.
func fig5OptionsOf(e ExperimentSpec) *api.Fig5Options {
	if e.Options == nil {
		return nil
	}
	return e.Options.Fig5
}

// Option-grid bounds: one unauthenticated request must not be able to
// size server allocations arbitrarily. The paper's densest fig5 grid is
// 7 budgets x 6 lambdas. maxSurrogateEpochs also bounds a campaign's
// SurrogateEpochs: training holds a job-gate slot for every epoch.
const (
	maxOptionGrid       = 64
	maxSurrogateEpochs  = 10000
	maxExperimentRuns   = 1000
	maxOptionQueryValue = 1 << 20
)

// validateSpec rejects specs the engine would reject — and option
// payloads outside the server's bounds — before any job record or
// cache flight exists, returning the registry entry a valid spec names
// (so callers never repeat the lookup).
func validateSpec(e ExperimentSpec) (engine.Experiment, error) {
	exp, ok := engine.Lookup(e.Name)
	if !ok {
		return engine.Experiment{}, fmt.Errorf("service: experiment %q (have %s): %w",
			e.Name, strings.Join(engine.Names(), ", "), ErrExperimentUnknown)
	}
	if e.Scale < 0 || e.Scale > 1 {
		return engine.Experiment{}, badRequestf("scale %v outside (0, 1]", e.Scale)
	}
	// Runs sizes grid allocations (configs x runs cells); an absurd value
	// in one unauthenticated request must not be able to OOM the server.
	// The paper's largest grid uses 10 runs; 1000 is generous headroom.
	if e.Runs < 0 || e.Runs > maxExperimentRuns {
		return engine.Experiment{}, badRequestf("runs %d outside [0, %d]", e.Runs, maxExperimentRuns)
	}
	if e.Options == nil {
		return exp, nil
	}
	// A backend assertion must name a backend this binary knows and the
	// one this process actually computes with: the backend is selected
	// once at startup (xbarserve -fast), not per job, so a mismatched
	// spec is refused rather than silently served from the wrong one.
	if tb := e.Options.TensorBackend; tb != "" {
		if _, err := tensor.ByName(tb); err != nil {
			return engine.Experiment{}, badRequestf("unknown tensor backend %q (want %q or %q)",
				tb, tensor.RefName, tensor.FastName)
		}
		if tb != tensor.ActiveName() {
			return engine.Experiment{}, badRequestf("tensor backend %q not active (server runs %q)",
				tb, tensor.ActiveName())
		}
	}
	f := e.Options.Fig5
	if f != nil && e.Name != "fig5" {
		return engine.Experiment{}, badRequestf("options.fig5 requires experiment fig5, not %q", e.Name)
	}
	if f == nil {
		return exp, nil
	}
	if len(f.Queries) > maxOptionGrid || len(f.Lambdas) > maxOptionGrid {
		return engine.Experiment{}, badRequestf("fig5 option grids capped at %d points (got %d queries, %d lambdas)",
			maxOptionGrid, len(f.Queries), len(f.Lambdas))
	}
	for _, q := range f.Queries {
		if q <= 0 || q > maxOptionQueryValue {
			return engine.Experiment{}, badRequestf("fig5 query budget %d outside [1, %d]", q, maxOptionQueryValue)
		}
	}
	for _, l := range f.Lambdas {
		if l < 0 {
			return engine.Experiment{}, badRequestf("fig5 lambda %v must be non-negative", l)
		}
	}
	if f.SurrogateEpochs < 0 || f.SurrogateEpochs > maxSurrogateEpochs {
		return engine.Experiment{}, badRequestf("fig5 surrogate epochs %d outside [0, %d]", f.SurrogateEpochs, maxSurrogateEpochs)
	}
	return exp, nil
}

// specKey is the artifact-cache identity of the normalized spec,
// including any option grids (two specs with different grids are
// different experiments) and any non-reference tensor backend (its
// numbers differ from the reference artifact's within the tolerance
// bound, so they must never alias it in the spill store).
func specKey(e ExperimentSpec) string {
	key := fmt.Sprintf("experiment|%s|%d|%g|%d", e.Name, e.Seed, e.Scale, e.Runs)
	if f := fig5OptionsOf(e); f != nil {
		key += fmt.Sprintf("|fig5|%v|%v|%d", f.Queries, f.Lambdas, f.SurrogateEpochs)
	}
	if e.Options != nil && e.Options.TensorBackend != "" {
		key += "|tb:" + e.Options.TensorBackend
	}
	return key
}

// options resolves the spec into engine options on this service's
// worker budget and data directory.
func (s *Service) options(spec ExperimentSpec) engine.Options {
	return engine.Options{
		Seed:    spec.Seed,
		Scale:   spec.Scale,
		Runs:    spec.Runs,
		Workers: s.cfg.Workers,
		DataDir: s.cfg.DataDir,
	}
}

// runnerFor resolves a validated spec to its runner: the registry entry
// itself, or — when the spec carries typed options — the experiment's
// optioned run path (fig5's custom query/λ grids).
func runnerFor(exp engine.Experiment, spec ExperimentSpec) func(engine.Options) (engine.Result, error) {
	f := fig5OptionsOf(spec)
	if f == nil {
		return exp.Run
	}
	return func(opts engine.Options) (engine.Result, error) {
		return experiment.RunFig5(experiment.Fig5Options{
			Options:         opts,
			Queries:         f.Queries,
			Lambdas:         f.Lambdas,
			SurrogateEpochs: f.SurrogateEpochs,
		})
	}
}

// ExperimentInfo describes one registry entry for listings (the wire
// type).
type ExperimentInfo = api.ExperimentInfo

// Experiments lists the registry with each grid's axes at the given
// spec defaults (zero spec = full scale).
func (s *Service) Experiments(spec ExperimentSpec) []ExperimentInfo {
	opts := s.options(spec)
	out := []ExperimentInfo{}
	for _, exp := range engine.All() {
		info := ExperimentInfo{Name: exp.Name, Title: exp.Title}
		if exp.Axes != nil {
			for _, ax := range exp.Axes(opts) {
				info.Axes = append(info.Axes, api.Axis{Name: ax.Name, Values: ax.Values})
			}
		}
		out = append(out, info)
	}
	return out
}

// ExperimentResult is the deliverable of one experiment job (the wire
// type).
type ExperimentResult = api.ExperimentResult

// RunExperiment executes (or serves from cache) one experiment job
// synchronously. Jobs are admitted through the service gate, so at most
// Config.MaxConcurrentJobs run at once. In a cluster, the spec's ring
// owner computes (and serves) it; other nodes answer with a redirect.
func (s *Service) RunExperiment(spec ExperimentSpec) (*ExperimentResult, error) {
	if s.isClosed() {
		return nil, ErrServiceClosed
	}
	spec = specDefaults(spec)
	exp, err := validateSpec(spec)
	if err != nil {
		return nil, err
	}
	// Ring admission after validation: a malformed spec is a 400 on
	// every node, never a redirect to the owner's 400.
	if err := s.routeKey(specKey(spec)); err != nil {
		return nil, err
	}
	return s.runExperimentLocal(spec, exp)
}

// runExperimentReplay is RunExperiment minus ring admission — the path
// journal replay (runJob at recovery) takes, because a journaled job is
// this node's to finish regardless of how the membership looked when it
// was accepted.
func (s *Service) runExperimentReplay(spec ExperimentSpec) (*ExperimentResult, error) {
	if s.isClosed() {
		return nil, ErrServiceClosed
	}
	spec = specDefaults(spec)
	exp, err := validateSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.runExperimentLocal(spec, exp)
}

// runExperimentLocal computes (or serves) a validated spec on this
// node, unconditionally. Experiment artifacts are the ones peers are
// asked for; their launches are journaled by LaunchExperiment, not by
// the flight.
func (s *Service) runExperimentLocal(spec ExperimentSpec, exp engine.Experiment) (*ExperimentResult, error) {
	run := runnerFor(exp, spec)
	val, cached, err := serveArtifact(s, specKey(spec), nil, s.peerFetchExperiment, func() (*ExperimentResult, error) {
		out, err := run(s.options(spec))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := out.WriteJSON(&buf); err != nil {
			return nil, err
		}
		// Compact to the canonical artifact form: a JSON round trip
		// through the spill store compacts embedded RawMessage, so
		// storing compact bytes from the start keeps results
		// bit-identical whether served from memory, from disk, or from a
		// post-restart replay.
		var compact bytes.Buffer
		if err := json.Compact(&compact, buf.Bytes()); err != nil {
			return nil, err
		}
		return &ExperimentResult{
			Name: spec.Name, Seed: spec.Seed, Scale: spec.Scale, Runs: spec.Runs,
			Options: spec.Options,
			Render:  out.Render(),
			Result:  json.RawMessage(compact.Bytes()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := *val // copy so Cached can differ per caller
	res.Cached = cached
	return &res, nil
}

// JobStatus is an experiment job's lifecycle state (the wire type).
type JobStatus = api.JobStatus

// Job lifecycle states.
const (
	JobRunning = api.JobRunning
	JobDone    = api.JobDone
	JobFailed  = api.JobFailed
)

// ExperimentJob tracks one asynchronous experiment launch.
type ExperimentJob struct {
	id   string
	spec ExperimentSpec
	done chan struct{}

	mu     sync.Mutex
	result *ExperimentResult
	err    error
}

// ID returns the job's poll handle.
func (j *ExperimentJob) ID() string { return j.id }

// Spec returns the job's launch spec.
func (j *ExperimentJob) Spec() ExperimentSpec { return j.spec }

// Done returns a channel closed when the job finishes.
func (j *ExperimentJob) Done() <-chan struct{} { return j.done }

// Snapshot returns the job's current status and, once done, its result
// or error.
func (j *ExperimentJob) Snapshot() (JobStatus, *ExperimentResult, error) {
	select {
	case <-j.done:
	default:
		return JobRunning, nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return JobFailed, nil, j.err
	}
	return JobDone, j.result, nil
}

// LaunchExperiment starts one experiment job in the background and
// returns its poll handle. Identical concurrent launches collapse onto
// one computation through the artifact cache; each keeps its own job
// record.
func (s *Service) LaunchExperiment(spec ExperimentSpec) (*ExperimentJob, error) {
	if s.isClosed() {
		return nil, ErrServiceClosed
	}
	spec = specDefaults(spec)
	// Validate before creating any job record, so a malformed spec is an
	// immediate 400 on the launch path, exactly as on the synchronous one.
	if _, err := validateSpec(spec); err != nil {
		return nil, err
	}
	if err := s.routeKey(specKey(spec)); err != nil {
		return nil, err
	}
	job := &ExperimentJob{spec: spec, done: make(chan struct{})}
	// add assigns job.id under the table lock before publishing the job;
	// concurrent pollers may read ID() the moment add returns.
	if err := s.jobs.add(job); err != nil {
		return nil, err
	}
	// Journal before launch: a job the journal cannot record is refused
	// (typed unavailable), never accepted without restart safety.
	if err := s.journalLaunch(journalRecord{Op: opLaunch, ID: job.id, Spec: &job.spec}); err != nil {
		s.jobs.remove(job.id)
		return nil, err
	}
	s.runJob(job)
	return job, nil
}

// runJob runs one accepted job to completion in the background. A
// panicking run — inside the compute (recovered by the cache into a
// typed memo.PanicError) or anywhere else in the runner (recovered
// here) — marks the job failed instead of leaving it running forever
// with its done channel never closed.
func (s *Service) runJob(job *ExperimentJob) {
	go func() {
		var res *ExperimentResult
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("service: job runner panicked: %v", r)
				}
			}()
			res, err = s.runExperimentReplay(job.spec)
		}()
		job.mu.Lock()
		job.result, job.err = res, err
		job.mu.Unlock()
		if err != nil {
			// A failure is counted and journaled before Done fires, so a
			// poller sees it in failed_jobs and a restart right after
			// restores it failed instead of relaunching it into the same
			// fault.
			s.failedJobs.Add(1)
			s.journalFinish(job.id, err)
			close(job.done)
			return
		}
		// A success is released first: losing its done record in a crash
		// costs only a recompute (or a spill hit) on restart, so waiters
		// do not wait on the journal append.
		close(job.done)
		s.journalFinish(job.id, nil)
	}()
}

// ExperimentJobByID returns a tracked job. In a cluster, an id minted
// by another node (its "@node" suffix names a ring member) redirects
// the poll there instead of 404ing.
func (s *Service) ExperimentJobByID(id string) (*ExperimentJob, error) {
	j, ok := s.jobs.get(id)
	if !ok {
		if err := s.jobRedirect(id); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("service: job %q: %w", id, ErrJobUnknown)
	}
	return j, nil
}

// jobTable tracks experiment jobs with a bounded FIFO of finished
// entries: running jobs are never evicted; beyond the bound the oldest
// finished jobs are forgotten (their cached artifacts remain in the
// artifact cache, so re-launching the same spec is instant). The bound
// also backpressures admission: when every tracked job is still
// running, further launches are refused rather than growing the table
// (and its goroutines) without limit.
type jobTable struct {
	mu    sync.Mutex
	seq   int64
	jobs  map[string]*ExperimentJob
	order []string
	bound int
	// suffix ("@<node-id>" in a cluster, "" otherwise) marks every
	// minted id with the node that owns the job, so any node can route a
	// poll for an id it does not track.
	suffix string
}

// ErrJobLimit indicates the experiment-job table is full of running
// jobs (Config.MaxExperimentJobs); the client should retry after some
// finish.
var ErrJobLimit = errors.New("service: experiment job limit reached")

func newJobTable(bound int) *jobTable {
	if bound <= 0 {
		bound = 1024
	}
	return &jobTable{jobs: make(map[string]*ExperimentJob), bound: bound}
}

// add registers a job, assigns its id under the lock (pollers may read
// it the moment the job is published), and evicts old finished jobs.
// It refuses the job when the table is at its bound with nothing
// finished to evict.
func (t *jobTable) add(j *ExperimentJob) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.jobs) >= t.bound {
		evicted := false
		for i, oid := range t.order {
			oj, ok := t.jobs[oid]
			if !ok {
				continue
			}
			select {
			case <-oj.done:
				delete(t.jobs, oid)
				t.order = append(t.order[:i:i], t.order[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			// Everything tracked is still running: admitting more would
			// grow the table and its launch goroutines without bound.
			return fmt.Errorf("service: %d jobs running: %w", len(t.jobs), ErrJobLimit)
		}
	}
	t.seq++
	j.id = fmt.Sprintf("job-%d%s", t.seq, t.suffix)
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	return nil
}

// addExisting registers a restored job under its original id (journal
// recovery), advancing the sequence past it so freshly assigned ids
// never collide with replayed ones.
func (t *jobTable) addExisting(j *ExperimentJob) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.jobs[j.id]; ok {
		return fmt.Errorf("service: job %q already tracked", j.id)
	}
	var n int64
	if _, err := fmt.Sscanf(j.id, "job-%d", &n); err == nil && n > t.seq {
		t.seq = n
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	return nil
}

// remove untracks a job whose acceptance was rolled back (journal
// refusal). Scans order from the tail: the job was just added.
func (t *jobTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.jobs, id)
	for i := len(t.order) - 1; i >= 0; i-- {
		if t.order[i] == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
}

func (t *jobTable) get(id string) (*ExperimentJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

func (t *jobTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}
