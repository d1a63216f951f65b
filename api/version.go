package api

import "fmt"

// The protocol version this package defines. Major gates
// compatibility (see the package comment's versioning policy); Minor
// counts additive changes within it.
const (
	// Major 2: the victim-derivation break. Servers now train every
	// victim from one canonical stream per config
	// (rng.New(seed).Split("victim").Split(config)), so campaign,
	// extraction and experiment outputs differ bit-for-bit from any v1
	// server at the same request — same endpoints, same schemas,
	// different numbers. Changing an endpoint's meaning is incompatible
	// under the versioning policy, hence the major bump and the move of
	// every versioned path from /v1 to /v2.
	Major = 2
	// Minor 0 additionally carries the additive batcher-observability
	// counters in Stats (batch_flushes, batched_queries, max_batch,
	// queue_depth_peak).
	//
	// Minor 1 adds the tensor-backend surface: VersionInfo.TensorBackend
	// and Stats.TensorBackend report which GEMM backend the server
	// computes with ("reference" is the bit-exact default; "fast" trades
	// bit-identity for speed within a documented error bound), and the
	// optional ExperimentOptions.TensorBackend lets a spec assert the
	// backend it expects — servers refuse (bad_request) rather than
	// silently serve numbers from a different backend. All additive:
	// v2.0 clients never set the option and may ignore the new fields.
	//
	// Minor 2 adds the cluster + provenance surface: the node_redirect
	// and unknown_artifact error codes with Error.RedirectTo, the
	// GET /v2/cluster membership endpoint (ClusterInfo), the
	// GET /v2/artifacts/{id} + /proof endpoint pair (Artifact,
	// ArtifactProof, and the provenance-chain helpers in provenance.go),
	// the GET /v2/metrics text endpoint, and the cluster/provenance
	// gauges in Stats. All additive: single-node servers never emit a
	// redirect, and v2.1 clients may ignore every new field.
	//
	// Minor 3 adds the binary query body (MediaTypeF64, f64.go): the
	// two session query endpoints also accept their input rows as raw
	// little-endian float64, selected by the request's Content-Type,
	// and answer them with the same JSON bytes a JSON body draws. All
	// additive: a JSON body (or no Content-Type) behaves exactly as in
	// v2.2, and the SDK sends binary only to a server it has seen
	// report v2.3 or later.
	Minor = 3
)

// VersionString renders the package's protocol version, e.g. "v2.0".
func VersionString() string { return fmt.Sprintf("v%d.%d", Major, Minor) }

// PathPrefix is the URL prefix of every versioned endpoint. It tracks
// Major: a v1 client hitting a v2 server 404s before it can misread
// renumbered results.
const PathPrefix = "/v2"
