// Package api is the versioned public wire protocol of the xbarsec
// attack-campaign service: every request and response body exchanged
// with an xbarserve instance is one of the typed structs in this
// package (or, for the two query endpoints, the binary body of f64.go),
// every error response is the uniform Error envelope, and the
// protocol version is negotiated through GET /v2/version. The package
// has no dependencies beyond the standard library, so any Go client —
// the bundled client SDK (xbarsec/client), the CLI's remote paths, or
// third-party tooling — can speak the protocol by importing it alone.
//
// # Endpoints (protocol v2)
//
//	GET    /healthz                    Health
//	GET    /v2/version                 VersionInfo
//	GET    /v2/victims                 []VictimStats
//	POST   /v2/sessions                OpenSessionRequest  -> Session
//	GET    /v2/sessions/{id}           Session
//	DELETE /v2/sessions/{id}           SessionClosed
//	POST   /v2/sessions/{id}/query     QueryRequest        -> QueryResponse
//	                                   (or a one-row binary body, v2.3)
//	POST   /v2/sessions/{id}/queries   QueryBatchRequest   -> QueryBatchResponse
//	                                   (or a binary body, v2.3)
//	POST   /v2/campaigns               CampaignRequest     -> CampaignResult
//	POST   /v2/extract                 ExtractRequest      -> ExtractResult
//	GET    /v2/experiments             []ExperimentInfo
//	POST   /v2/experiments             ExperimentSpec      -> Job
//	                                   (?wait=1 blocks for the result)
//	GET    /v2/experiments/jobs/{id}   Job
//	GET    /v2/stats                   Stats (?format=csv for CSV)
//	GET    /v2/cluster                 ClusterInfo
//	GET    /v2/artifacts/{id}          Artifact
//	GET    /v2/artifacts/{id}/proof    ArtifactProof
//	GET    /v2/metrics                 Prometheus text exposition
//
// # Binary query bodies (v2.3)
//
// The two query endpoints also accept their input rows as raw float64,
// selected by Content-Type: MediaTypeF64 ("application/x-xbarsec-f64").
// The body is
//
//	[u32 LE rows][u32 LE cols][rows·cols float64, IEEE-754 LE, row-major]
//
// AppendF64Rows encodes it. ReadF64Rows decodes it from a reader as it
// arrives, checking the header first and holding at most twice the
// bytes received plus a fixed buffer; ParseF64Rows decodes a body in
// memory. A server rejects a binary body with a bad_request envelope,
// before any budget is reserved, unless 1 ≤ rows ≤ the batch limit
// (exactly 1 on /query) and cols equals the victim's input width (both
// checked before any row is allocated), the body ends exactly after
// rows·cols values within the request size cap, and every value is
// finite.
// JSON cannot carry NaN or ±Inf either, so both encodings accept the
// same inputs, and the response — always JSON — is byte-identical for
// both. Any other Content-Type, or none, is the JSON body as before.
// Responses, error envelopes and every other endpoint stay JSON.
//
// The client SDK sends binary only to a node whose own /v2/version it
// has seen report v2.3 or later: the client's base URL, after the
// handshake, so the first query on a fresh client already uses it. It
// sends JSON whenever binary cannot carry the call faithfully — an
// empty batch, empty or ragged rows, non-finite values — and to any
// node it has not handshaken with: WithoutVersionCheck, or a session
// pinned to another cluster node. A server never redirects a session
// query (the session is node-local; an unknown id is session_unknown),
// so no other node receives a binary body. A malformed batch draws the
// same error code, bad_request, from both encodings, but the message
// differs: a binary body that breaks a header rule (too many rows, the
// wrong row width) is a "malformed request body" naming that rule,
// where JSON names the batch limit or the offending input.
//
// # Versioning policy
//
// The protocol follows the usual major/minor contract. Within one major
// version, servers may add endpoints and add response fields, and may
// accept new optional request fields — they never rename or remove
// fields, change a field's type, or change an endpoint's meaning.
// Clients must therefore tolerate unknown response fields. Anything
// incompatible increments Major (and the versioned path prefix, see
// PathPrefix), and the client SDK refuses to talk to a server whose
// major version differs from its own (ErrorCode "version_mismatch").
//
// Protocol v2 is exactly such a break: the server's victim derivation
// changed (one canonical RNG stream per model config, shared by every
// runner), so campaign, extraction and experiment responses carry
// different numbers than a v1 server would return for the same request
// — an endpoint-meaning change, not a schema change. See version.go.
//
// v2.1 adds the tensor-backend surface: VersionInfo.TensorBackend and
// Stats.TensorBackend report the GEMM backend the server computes with,
// and ExperimentOptions.TensorBackend lets a spec assert the backend it
// expects (a mismatch is a bad_request, never silently different
// numbers). All additive — v2.0 clients are unaffected.
//
// v2.2 adds the cluster + provenance surface: GET /v2/cluster exposes a
// node's static membership, GET /v2/artifacts/{id} (+ /proof) serves
// spilled artifacts by content address with their Merkle provenance
// chains (see provenance.go), GET /v2/metrics exposes cache gauges in
// the Prometheus text format, and the node_redirect error (HTTP 421,
// Error.RedirectTo) tells a client which node owns the key it asked the
// wrong node for. All additive — a single-node server never redirects,
// and v2.1 clients may ignore every new endpoint.
//
// v2.3 adds the binary query body above. Additive: JSON bodies behave
// exactly as in v2.2, and a v2.2 client never sends binary.
//
// # Errors
//
// Every non-2xx response carries the Error envelope {code, message,
// detail}. Code is machine-readable and stable across the major
// version; Message and Detail are human-readable and may change.
// Clients switch on Code (or on the HTTP status, which is derived from
// it — see ErrorCode.HTTPStatus), never on message text.
package api
