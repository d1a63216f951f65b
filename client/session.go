package client

import (
	"context"
	"net/http"

	"xbarsec/api"
)

// Session is a client-side handle on one attacker session. Methods are
// safe for concurrent use (the handle holds only the immutable id, the
// node base URL that owns the session, and the open-time snapshot);
// per-call accounting comes back on each response.
type Session struct {
	c    *Client
	base string // the node that opened (and therefore hosts) the session
	info api.Session
}

// OpenSession opens an attacker session against a registered victim.
// Against a cluster, the open follows the victim's ownership redirect
// and the returned handle stays pinned to the owning node — session
// state (budget, noise stream) is node-local, so its queries must not
// wander.
func (c *Client) OpenSession(ctx context.Context, req api.OpenSessionRequest) (*Session, error) {
	var info api.Session
	base, err := c.callBase(ctx, c.base, http.MethodPost, api.PathPrefix+"/sessions", req, &info)
	if err != nil {
		return nil, err
	}
	return &Session{c: c, base: base, info: info}, nil
}

// SessionByID wraps an existing session id (e.g. one persisted across
// process restarts) without a server round trip; the Info snapshot is
// then zero until Refresh. The handle starts at the client's own base —
// callers resuming a session on another cluster node construct their
// client against that node.
func (c *Client) SessionByID(id string) *Session {
	return &Session{c: c, base: c.base, info: api.Session{ID: id}}
}

// ID returns the session identifier — the only credential needed to
// spend or close the session.
func (s *Session) ID() string { return s.info.ID }

// Info returns the open-time (or last Refresh) session snapshot. Use
// Refresh — or the accounting fields on each query response — for live
// budget numbers.
func (s *Session) Info() api.Session { return s.info }

// Refresh fetches the session's current accounting.
func (s *Session) Refresh(ctx context.Context) (api.Session, error) {
	var info api.Session
	if _, err := s.c.callBase(ctx, s.base, http.MethodGet, api.PathPrefix+"/sessions/"+s.info.ID, nil, &info); err != nil {
		return api.Session{}, err
	}
	return info, nil
}

// Query runs one oracle query: one HTTP round trip, one budget charge
// iff a response is delivered.
func (s *Session) Query(ctx context.Context, input []float64) (api.QueryResponse, error) {
	var out api.QueryResponse
	err := s.query(ctx, "/query", [][]float64{input}, api.QueryRequest{Input: input}, &out)
	return out, err
}

// QueryBatch runs a whole query slice in one HTTP round trip, served
// server-side as one coalesced batch: responses are bit-identical to
// len(inputs) sequential Query calls, budget accounting is per query
// (after mid-batch exhaustion the remaining outcomes carry the typed
// error "budget_exhausted"), but the cost is one round trip and a
// constant number of array passes. This is the path that makes remote
// collection scale with the server's coalescer instead of with HTTP
// latency.
func (s *Session) QueryBatch(ctx context.Context, inputs [][]float64) (api.QueryBatchResponse, error) {
	var out api.QueryBatchResponse
	err := s.query(ctx, "/queries", inputs, api.QueryBatchRequest{Inputs: inputs}, &out)
	return out, err
}

// query posts rows to one of the session's query endpoints. After the
// version handshake it sends the binary body (api.MediaTypeF64) when
// the session lives on the client's own base and that base reported
// protocol v2.3 or later; otherwise, or when the rows are empty,
// ragged or not finite, it sends req as JSON. The binary body is a
// transport choice only: the server answers both with the same bytes
// on success, and with the same error code (bad_request) on a
// malformed batch. A server never redirects a session query (it looks
// the session up locally and answers session_unknown), so a binary
// body only reaches the node whose version the handshake saw.
func (s *Session) query(ctx context.Context, endpoint string, rows [][]float64, req, out any) error {
	if err := s.c.ensureCompatible(ctx); err != nil {
		return err
	}
	in := req
	if s.base == s.c.base && s.c.baseSpeaksF64() {
		if data, err := api.AppendF64Rows(nil, rows); err == nil {
			in = f64Body(data)
		}
	}
	_, err := s.c.callBase(ctx, s.base, http.MethodPost, api.PathPrefix+"/sessions/"+s.info.ID+endpoint, in, out)
	return err
}

// Close closes the session; its remaining budget is forfeited.
func (s *Session) Close(ctx context.Context) error {
	var out api.SessionClosed
	_, err := s.c.callBase(ctx, s.base, http.MethodDelete, api.PathPrefix+"/sessions/"+s.info.ID, nil, &out)
	return err
}
