package api

import "encoding/json"

// Mode selects how much of the oracle's output a query reveals — the
// wire form of the paper's two disclosure settings.
type Mode string

// The disclosure modes.
const (
	// ModeLabelOnly reveals just the argmax class label.
	ModeLabelOnly Mode = "label-only"
	// ModeRawOutput reveals the full output vector.
	ModeRawOutput Mode = "raw-output"
)

// Health is the GET /healthz body.
type Health struct {
	Status string `json:"status"`
}

// VersionInfo is the GET /v2/version body: the server's protocol
// version plus a digest of its experiment registry, so clients can
// detect both incompatible protocols and diverging experiment sets
// before spending any budget.
type VersionInfo struct {
	// Version is the human form of the protocol version, e.g. "v1.0".
	Version string `json:"version"`
	// Major is the compatibility gate: the client SDK refuses servers
	// whose Major differs from its own.
	Major int `json:"major"`
	// Minor counts additive, backward-compatible protocol changes.
	Minor int `json:"minor"`
	// Experiments is the number of registered experiments.
	Experiments int `json:"experiments"`
	// ExperimentsHash digests the sorted experiment-registry names
	// (sha256, hex). Two servers with equal hashes accept the same
	// ExperimentSpec.Name values.
	ExperimentsHash string `json:"experiments_hash"`
	// TensorBackend is the GEMM backend the server computes with
	// ("reference" or "fast"; additive in v2.1). Two servers with
	// different backends agree on every result only within the fast
	// backend's documented error bound, not bit-for-bit.
	TensorBackend string `json:"tensor_backend,omitempty"`
}

// OpenSessionRequest is the POST /v2/sessions body: what one attacker
// session may observe and spend.
type OpenSessionRequest struct {
	// Victim names the registered victim to attack (GET /v2/victims).
	Victim string `json:"victim"`
	// Mode selects label-only or raw-output disclosure ("" = label-only).
	Mode Mode `json:"mode,omitempty"`
	// MeasurePower attaches the power side channel to every query.
	MeasurePower bool `json:"measure_power,omitempty"`
	// PowerNoiseStd is the relative instrument noise on power readings.
	PowerNoiseStd float64 `json:"power_noise_std,omitempty"`
	// Budget caps the session's oracle queries. 0 selects the server
	// default; negative means unlimited.
	Budget int `json:"budget,omitempty"`
}

// Session is a session snapshot: the POST /v2/sessions and
// GET /v2/sessions/{id} body.
type Session struct {
	// ID is the session handle — and its only credential: anyone holding
	// it can spend the budget or close the session.
	ID string `json:"id"`
	// Victim is the attacked victim's name.
	Victim string `json:"victim"`
	// Mode is the session's disclosure mode.
	Mode Mode `json:"mode"`
	// Budget is the session's query cap (0 = unlimited).
	Budget int `json:"budget"`
	// Queries counts oracle queries charged so far.
	Queries int `json:"queries"`
	// Remaining is the unspent budget, or -1 when unlimited.
	Remaining int `json:"remaining"`
}

// SessionClosed is the DELETE /v2/sessions/{id} body.
type SessionClosed struct {
	Status string `json:"status"`
}

// QueryRequest is the POST /v2/sessions/{id}/query body: one oracle
// query.
type QueryRequest struct {
	// Input is the query vector; its length must equal the victim's
	// input dimensionality.
	Input []float64 `json:"input"`
}

// QueryResponse is what one oracle query reveals.
type QueryResponse struct {
	// Label is the oracle's predicted class.
	Label int `json:"label"`
	// Raw is the full output vector; omitted in label-only mode.
	Raw []float64 `json:"raw,omitempty"`
	// Power is the measured crossbar power in the paper's normalized
	// convention; 0 when the session measures no power.
	Power float64 `json:"power,omitempty"`
	// Queries and Remaining snapshot the session accounting after this
	// query.
	Queries   int `json:"queries"`
	Remaining int `json:"remaining"`
}

// QueryBatchRequest is the POST /v2/sessions/{id}/queries body: a slice
// of oracle queries served as one batched array read. Budget accounting
// is per query and order-faithful — the batch behaves exactly like
// submitting the inputs one by one, but costs one round trip and one
// array read instead of len(Inputs) of each. On a noisy victim no other
// submission's reads interleave with the batch.
type QueryBatchRequest struct {
	// Inputs are the query vectors, answered in order.
	Inputs [][]float64 `json:"inputs"`
}

// QueryOutcome is one query's result within a batch: a response, or a
// per-query error (after the session budget runs out mid-batch, the
// remaining outcomes carry Error "budget_exhausted", exactly as
// sequential queries would have failed).
type QueryOutcome struct {
	Label int       `json:"label"`
	Raw   []float64 `json:"raw,omitempty"`
	Power float64   `json:"power,omitempty"`
	// Error is set when this query was refused; the response fields are
	// then zero.
	Error *Error `json:"error,omitempty"`
}

// QueryBatchResponse answers a batched query: one outcome per input, in
// input order, plus the session accounting after the batch.
type QueryBatchResponse struct {
	Results   []QueryOutcome `json:"results"`
	Queries   int            `json:"queries"`
	Remaining int            `json:"remaining"`
}

// CampaignRequest is the POST /v2/campaigns body: one model-extraction-
// plus-evasion campaign (collect a budgeted query set, train a
// power-regularized surrogate, craft FGSM examples, measure oracle
// accuracy on them). Deterministic given the spec against a noise-free
// victim, so identical requests are served from the artifact cache.
type CampaignRequest struct {
	// Victim names the registered victim to attack.
	Victim string `json:"victim"`
	// Mode is the disclosure mode.
	Mode Mode `json:"mode"`
	// Seed drives collection shuffling, surrogate init and SGD order.
	Seed int64 `json:"seed"`
	// Queries is the attacker's oracle budget.
	Queries int `json:"queries"`
	// Lambda is the power-loss weight λ of the paper's Eq. (9).
	Lambda float64 `json:"lambda"`
	// SurrogateEpochs overrides surrogate training length (0 = default).
	SurrogateEpochs int `json:"surrogate_epochs,omitempty"`
	// AttackEps is the FGSM strength (0 = the paper's 0.1).
	AttackEps float64 `json:"attack_eps,omitempty"`
}

// CampaignResult is the deliverable of one campaign job.
type CampaignResult struct {
	Victim    string  `json:"victim"`
	Mode      Mode    `json:"mode"`
	Seed      int64   `json:"seed"`
	Queries   int     `json:"queries"`
	Lambda    float64 `json:"lambda"`
	AttackEps float64 `json:"attack_eps"`
	// CleanAccuracy is the victim's unattacked test accuracy.
	CleanAccuracy float64 `json:"clean_accuracy"`
	// SurrogateAccuracy is the stolen model's test accuracy.
	SurrogateAccuracy float64 `json:"surrogate_accuracy"`
	// AdvAccuracy is the victim's accuracy under surrogate-crafted FGSM;
	// CleanAccuracy - AdvAccuracy is the attack's damage.
	AdvAccuracy float64 `json:"adv_accuracy"`
	// QueriesCharged is the oracle budget the campaign actually spent.
	QueriesCharged int `json:"queries_charged"`
	// Cached reports whether the result was served from the artifact
	// cache instead of being recomputed.
	Cached bool `json:"cached"`
}

// ExtractRequest is the POST /v2/extract body: one power-side-channel
// extraction job (basis queries through a measurement probe).
type ExtractRequest struct {
	// Victim names the registered victim to probe.
	Victim string `json:"victim"`
	// Repeats averages each basis measurement this many times (0 = 1).
	Repeats int `json:"repeats,omitempty"`
	// NoiseStd is the relative instrument noise on the probe.
	NoiseStd float64 `json:"noise_std,omitempty"`
	// Seed drives the instrument-noise stream.
	Seed int64 `json:"seed"`
}

// ExtractResult carries the recovered power-channel signals.
type ExtractResult struct {
	Victim   string  `json:"victim"`
	Repeats  int     `json:"repeats"`
	NoiseStd float64 `json:"noise_std"`
	Seed     int64   `json:"seed"`
	// Signals are the raw basis-query power readings, one per input.
	Signals []float64 `json:"signals"`
	// Norms are the calibrated column 1-norm estimates.
	Norms []float64 `json:"norms"`
	// ProbeQueries is the number of power measurements spent.
	ProbeQueries int `json:"probe_queries"`
	// Cached reports artifact-cache service.
	Cached bool `json:"cached"`
}

// ExperimentSpec is the POST /v2/experiments body: one experiment job,
// fully determined by (name, seed, scale, runs, options) plus the
// server's data directory — so the spec doubles as the server's
// artifact-cache key and identical launches are served from cache.
type ExperimentSpec struct {
	// Name is the registry name, e.g. "table1" (GET /v2/experiments).
	Name string `json:"name"`
	// Seed roots every random choice of the experiment.
	Seed int64 `json:"seed"`
	// Scale in (0, 1] shrinks the sweep; 0 selects 1.0 (paper-sized).
	Scale float64 `json:"scale,omitempty"`
	// Runs overrides the repetition count (0 = scaled default).
	Runs int `json:"runs,omitempty"`
	// Options carries typed per-experiment options; the entry must match
	// Name (e.g. Options.Fig5 requires Name "fig5") and is validated
	// server-side.
	Options *ExperimentOptions `json:"options,omitempty"`
}

// ExperimentOptions carries typed experiment options: per-experiment
// entries (at most one may be set, and it must match
// ExperimentSpec.Name; new experiments grow new fields here) plus
// cross-cutting fields that apply to any experiment. All additive, so
// minor-version compatible.
type ExperimentOptions struct {
	// Fig5 customizes the Figure 5 surrogate-attack sweep grids.
	Fig5 *Fig5Options `json:"fig5,omitempty"`
	// TensorBackend asserts the GEMM backend the result must be computed
	// with ("" accepts whatever the server runs; additive in v2.1). The
	// backend is a process-wide serving mode, not a per-job switch, so a
	// server whose active backend differs refuses the spec (bad_request)
	// instead of returning numbers the client didn't ask for.
	TensorBackend string `json:"tensor_backend,omitempty"`
}

// Fig5Options overrides the Figure 5 sweep grids; zero values select
// the paper's grids (thinned at small Scale).
type Fig5Options struct {
	// Queries overrides the query-budget grid (each entry > 0; clamped
	// to the victim's training-set size server-side).
	Queries []int `json:"queries,omitempty"`
	// Lambdas overrides the power-loss-weight grid (each entry >= 0).
	Lambdas []float64 `json:"lambdas,omitempty"`
	// SurrogateEpochs overrides surrogate training length.
	SurrogateEpochs int `json:"surrogate_epochs,omitempty"`
}

// Axis is one named dimension of an experiment grid.
type Axis struct {
	// Name labels the dimension, e.g. "config" or "strength".
	Name string `json:"name"`
	// Values are the axis points in enumeration order.
	Values []string `json:"values"`
}

// ExperimentInfo describes one registry entry: an element of the
// GET /v2/experiments listing.
type ExperimentInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	Axes  []Axis `json:"axes,omitempty"`
}

// ExperimentResult is the deliverable of one experiment job.
type ExperimentResult struct {
	Name    string             `json:"name"`
	Seed    int64              `json:"seed"`
	Scale   float64            `json:"scale"`
	Runs    int                `json:"runs,omitempty"`
	Options *ExperimentOptions `json:"options,omitempty"`
	// Render is the experiment's human-readable report — byte-identical
	// to `xbarattack <name>` at the same options.
	Render string `json:"render"`
	// Result is the experiment's structured JSON form.
	Result json.RawMessage `json:"result"`
	// Cached reports whether the result came from the artifact cache.
	Cached bool `json:"cached"`
}

// JobStatus is an experiment job's lifecycle state.
type JobStatus string

// Job lifecycle states.
const (
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// Job is an experiment-job snapshot: the POST /v2/experiments and
// GET /v2/experiments/jobs/{id} body.
type Job struct {
	// ID is the poll handle.
	ID   string         `json:"id"`
	Spec ExperimentSpec `json:"spec"`
	// Status is running until the job finishes, then done or failed.
	Status JobStatus `json:"status"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Result is set once the job is done.
	Result *ExperimentResult `json:"result,omitempty"`
}

// VictimStats is one victim's serving counters: an element of the
// GET /v2/victims listing and of Stats.
type VictimStats struct {
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	// Noisy reports whether the victim's array draws per-read noise.
	Noisy bool `json:"noisy"`
	// Requests is the number of query rows read from the array.
	Requests int64 `json:"requests"`
	// Batches is the number of array reads, one per submission (a
	// query, a query batch, a probe reading); Requests/Batches is the
	// mean rows per read.
	Batches int64 `json:"batches"`
	// MaxBatch is the largest single read, in rows.
	MaxBatch int64 `json:"max_batch"`
	// QueueDepthPeak is the most reads ever in flight on the victim at
	// once, counting those waiting for a noisy array and those reading.
	QueueDepthPeak int64 `json:"queue_depth_peak"`
	// OpenSessions counts currently open sessions.
	OpenSessions int64 `json:"open_sessions"`
}

// Stats is the GET /v2/stats body: a point-in-time service snapshot.
type Stats struct {
	Victims []VictimStats `json:"victims"`
	// Sessions counts open sessions across all victims.
	Sessions int `json:"sessions"`
	// ReapedSessions counts sessions evicted by the idle-TTL janitor.
	ReapedSessions int64 `json:"reaped_sessions"`
	// Campaigns counts campaign jobs served (cached or computed).
	Campaigns int64 `json:"campaigns"`
	// ExperimentJobs counts experiment jobs currently tracked (running
	// or finished, within the job-table bound).
	ExperimentJobs int `json:"experiment_jobs"`
	// CacheHits and CacheMisses are artifact-cache counters.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CachedArtifacts is the number of distinct artifacts in memory;
	// CachedArtifactBytes is their approximate byte weight (the value
	// bounded by the server's artifact-cache byte budget).
	CachedArtifacts     int   `json:"cached_artifacts"`
	CachedArtifactBytes int64 `json:"cached_artifact_bytes"`
	// FailedJobs counts experiment jobs that finished in error (panics
	// included — a panicking job is recovered and marked failed, never
	// left running forever).
	FailedJobs int64 `json:"failed_jobs"`
	// ReplayedJobs counts jobs restored from the job journal at the last
	// startup — the observable trace of crash recovery.
	ReplayedJobs int64 `json:"replayed_jobs"`
	// SpilledArtifacts / SpilledArtifactBytes describe the on-disk spill
	// store behind the in-memory cache (0 when the server runs without a
	// data directory): one file per artifact, and the bytes those files
	// take on disk, provenance records included. SpillHits counts
	// artifacts served from disk instead of recomputed.
	SpilledArtifacts     int64 `json:"spilled_artifacts"`
	SpilledArtifactBytes int64 `json:"spilled_artifact_bytes"`
	SpillHits            int64 `json:"spill_hits"`
	// Array-read observability, aggregated across victims (additive in
	// v2.0). BatchFlushes counts array reads, one per submission;
	// BatchedQueries counts the rows they read, so
	// BatchedQueries/BatchFlushes is the service-wide mean rows per
	// read. MaxBatch is the largest single read anywhere;
	// QueueDepthPeak the most reads in flight on any one victim.
	BatchFlushes   int64 `json:"batch_flushes"`
	BatchedQueries int64 `json:"batched_queries"`
	MaxBatch       int64 `json:"max_batch"`
	QueueDepthPeak int64 `json:"queue_depth_peak"`
	// TensorBackend is the GEMM backend the server computes with
	// (additive in v2.1; see VersionInfo.TensorBackend).
	TensorBackend string `json:"tensor_backend,omitempty"`
	// NodeID and RingHash identify this node and its cluster membership
	// version when the server runs as part of a cluster (additive in
	// v2.2; empty on single-node servers). Two nodes route consistently
	// iff their RingHash values match.
	NodeID   string `json:"node_id,omitempty"`
	RingHash string `json:"ring_hash,omitempty"`
	// Cluster routing and peer-artifact counters (additive in v2.2).
	// RedirectsIssued counts requests refused with node_redirect;
	// PeerFetches counts artifact fetch attempts against peers, of which
	// PeerFetchVerified passed provenance verification and were served
	// without recomputing and PeerFetchRejected failed verification and
	// fell back to local compute.
	RedirectsIssued   int64 `json:"redirects_issued,omitempty"`
	PeerFetches       int64 `json:"peer_fetches,omitempty"`
	PeerFetchVerified int64 `json:"peer_fetch_verified,omitempty"`
	PeerFetchRejected int64 `json:"peer_fetch_rejected,omitempty"`
	// ProvenanceRecords counts Merkle provenance records on disk
	// (additive in v2.2; 0 without a data directory). Each record lives
	// inside its artifact's spill file, so it equals SpilledArtifacts.
	ProvenanceRecords int64 `json:"provenance_records,omitempty"`
}

// NodeInfo is one cluster member as exposed by GET /v2/cluster.
type NodeInfo struct {
	// ID is the node's stable identifier (`xbarserve -node-id`).
	ID string `json:"id"`
	// URL is the base URL peers and redirected clients reach it at.
	URL string `json:"url"`
	// Self marks the node that served this response.
	Self bool `json:"self,omitempty"`
}

// ClusterInfo is the GET /v2/cluster body: the static membership this
// node routes by (additive in v2.2). Single-node servers report
// Enabled false with no members.
type ClusterInfo struct {
	Enabled bool `json:"enabled"`
	// Members is the full static membership, sorted by ID.
	Members []NodeInfo `json:"members,omitempty"`
	// VNodes and RingSeed are the ring parameters; with Members they
	// fully determine placement.
	VNodes   int   `json:"vnodes,omitempty"`
	RingSeed int64 `json:"ring_seed,omitempty"`
	// RingHash is the membership version (see Stats.RingHash).
	RingHash string `json:"ring_hash,omitempty"`
}
