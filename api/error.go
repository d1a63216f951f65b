package api

import (
	"errors"
	"net/http"
)

// ErrorCode is the machine-readable identity of a protocol error.
// Codes are stable across a major version: clients switch on them to
// drive retry/backoff/abort decisions, never on message text.
type ErrorCode string

// The protocol v1 error codes.
const (
	// CodeBadRequest: the request body or parameters failed validation;
	// retrying the identical request cannot succeed.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnknownVictim: the named victim is not registered.
	CodeUnknownVictim ErrorCode = "unknown_victim"
	// CodeUnknownSession: the session id is closed, expired or never
	// existed.
	CodeUnknownSession ErrorCode = "unknown_session"
	// CodeUnknownExperiment: the experiment name is not in the server's
	// registry (list GET /v2/experiments).
	CodeUnknownExperiment ErrorCode = "unknown_experiment"
	// CodeUnknownJob: the experiment job id is unknown or was evicted.
	CodeUnknownJob ErrorCode = "unknown_job"
	// CodeBudgetExhausted: the session's oracle query budget is spent;
	// further queries on this session will keep failing.
	CodeBudgetExhausted ErrorCode = "budget_exhausted"
	// CodeSessionLimit: the victim is at its per-victim open-session cap;
	// retry after other sessions close or expire.
	CodeSessionLimit ErrorCode = "session_limit"
	// CodeJobLimit: the experiment-job table is full of running jobs;
	// retry after some finish.
	CodeJobLimit ErrorCode = "job_limit"
	// CodeServiceClosed: the service is shutting down.
	CodeServiceClosed ErrorCode = "service_closed"
	// CodeVictimClosed: the victim's serving pipeline has been shut down.
	CodeVictimClosed ErrorCode = "victim_closed"
	// CodeUnavailable: the server cannot durably accept the work right
	// now (journal full, spill disk full, shutting down mid-flush) but
	// expects to recover; retry after Error.RetryAfter seconds. Unlike
	// CodeServiceClosed this is a transient condition, not a goodbye.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeVersionMismatch: the client and server speak different major
	// protocol versions. Synthesized client-side by the SDK's version
	// handshake; never emitted by a server.
	CodeVersionMismatch ErrorCode = "version_mismatch"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
)

// The v2.2 additive error codes (cluster routing + artifact store).
const (
	// CodeNodeRedirect: this node is part of a cluster and does not own
	// the requested key; Error.RedirectTo carries the owner's base URL.
	// Not a failure — the SDK re-issues the identical request at the
	// owner (bounded hops) and surfaces only the owner's answer. Never
	// retried in place: the same node keeps not owning the key.
	CodeNodeRedirect ErrorCode = "node_redirect"
	// CodeUnknownArtifact: no spilled artifact whose provenance record
	// checks out for this node's code exists at the requested content
	// address on this node.
	CodeUnknownArtifact ErrorCode = "unknown_artifact"
)

// HTTPStatus returns the HTTP status a server sends with the code —
// the mapping is part of the protocol, shared by server and clients.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnknownVictim, CodeUnknownSession, CodeUnknownExperiment, CodeUnknownJob, CodeUnknownArtifact:
		return http.StatusNotFound
	case CodeBudgetExhausted, CodeSessionLimit, CodeJobLimit:
		return http.StatusTooManyRequests
	case CodeServiceClosed, CodeVictimClosed, CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeNodeRedirect:
		// 421: the request reached a server unable to produce an
		// authoritative response for it — exactly a non-owning cluster
		// node. Below 500, so the SDK's bare-status retry heuristics
		// never replay it in place.
		return http.StatusMisdirectedRequest
	default:
		return http.StatusInternalServerError
	}
}

// Error is the uniform envelope of every non-2xx response body. It
// implements the error interface, so SDK methods return it directly and
// callers unwrap it with errors.As (or the CodeOf shortcut).
type Error struct {
	// Code is the machine-readable error identity.
	Code ErrorCode `json:"code"`
	// Message is a human-readable summary. Not stable — do not parse.
	Message string `json:"message"`
	// Detail optionally carries underlying-cause context (a decoder
	// error, the offending value). Not stable — do not parse.
	Detail string `json:"detail,omitempty"`
	// RetryAfter, when positive, is the server's backoff hint in
	// seconds: how long to wait before retrying. Servers mirror it in
	// the Retry-After response header; the SDK's retry policy honors it
	// over its own exponential schedule.
	RetryAfter int `json:"retry_after,omitempty"`
	// RedirectTo, set with CodeNodeRedirect, is the base URL of the
	// cluster node that owns the requested key. Clients re-issue the
	// identical request there (v2.2, additive).
	RedirectTo string `json:"redirect_to,omitempty"`
}

// Error renders the envelope as a conventional error string.
func (e *Error) Error() string {
	if e.Detail != "" {
		return string(e.Code) + ": " + e.Message + " (" + e.Detail + ")"
	}
	return string(e.Code) + ": " + e.Message
}

// CodeOf extracts the protocol error code from any error in err's
// chain, or "" when err carries none. The idiomatic client switch:
//
//	switch api.CodeOf(err) {
//	case api.CodeBudgetExhausted: ...
//	case api.CodeSessionLimit:    ...
//	}
func CodeOf(err error) ErrorCode {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}
