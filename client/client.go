// Package client is the Go SDK for the xbarsec attack-campaign service:
// a typed, versioned client for every endpoint xbarserve exposes,
// speaking the public wire protocol of xbarsec/api. It is the supported
// way to drive a server programmatically — the CLI's remote paths, the
// examples and the HTTP tests are all built on it.
//
//	c, err := client.New("http://localhost:8080")
//	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{
//		Victim: "mnist", Mode: api.ModeRawOutput, Budget: 100,
//	})
//	resp, err := sess.Query(ctx, input)          // one round trip
//	batch, err := sess.QueryBatch(ctx, inputs)   // one round trip, N queries
//
// Every method returns *api.Error for protocol failures, so callers
// switch on the machine-readable code:
//
//	if api.CodeOf(err) == api.CodeBudgetExhausted { ... }
//
// The first call on a Client performs a one-time version handshake
// (GET <PathPrefix>/version) and refuses to proceed — with code
// "version_mismatch" — when the server speaks a different major
// protocol version.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"xbarsec/api"
)

// maxResponseBody bounds how much of any response the SDK will read:
// full-scale experiment renders are megabytes, so the cap is generous,
// but a misbehaving endpoint must not OOM the client.
const maxResponseBody = 64 << 20

// Client speaks the protocol version of the api package it was built
// against (api.Major) to one server. It is safe for concurrent use by
// multiple goroutines.
type Client struct {
	base         string
	hc           *http.Client
	checkVersion bool
	retry        *retrier // nil = single attempt per call

	mu         sync.Mutex
	checked    bool // version handshake reached a verdict
	versionErr error
	version    api.VersionInfo
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). The default is a plain &http.Client{}:
// no global state shared with http.DefaultClient, no client-side
// timeout — long-running ?wait=1 experiment launches are bounded by the
// caller's context instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithoutVersionCheck disables the automatic version handshake. For
// tests and protocol exploration only — a mismatched major version then
// surfaces as arbitrary decode errors instead of one typed refusal.
func WithoutVersionCheck() Option {
	return func(c *Client) { c.checkVersion = false }
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080"). It performs no I/O: the version handshake
// runs lazily on the first call, so constructing a client is free and
// cannot fail on an unreachable server.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	c := &Client{
		base:         strings.TrimRight(baseURL, "/"),
		hc:           &http.Client{},
		checkVersion: true,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Version fetches the server's version info. It does not require (or
// trigger) the compatibility handshake — it is the one call that makes
// sense against any server version.
func (c *Client) Version(ctx context.Context) (api.VersionInfo, error) {
	var v api.VersionInfo
	err := c.doRetry(ctx, c.base, http.MethodGet, api.PathPrefix+"/version", nil, &v)
	return v, err
}

// ensureCompatible runs the one-time version handshake. A transient
// failure (server unreachable) is returned but not cached, so the next
// call retries; an incompatible server is cached as a permanent typed
// refusal.
func (c *Client) ensureCompatible(ctx context.Context) error {
	if !c.checkVersion {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.checked {
		return c.versionErr
	}
	// The handshake is an idempotent read, so it rides the retry policy
	// like any other GET — a transport blip on the very first call must
	// not fail what a later poll would have survived.
	var v api.VersionInfo
	err := c.doRetry(ctx, c.base, http.MethodGet, api.PathPrefix+"/version", nil, &v)
	if err != nil {
		var se *statusError
		if errors.As(err, &se) && se.status == http.StatusNotFound {
			// No version endpoint at all: a pre-versioning (or foreign)
			// server. Permanently incompatible by definition.
			c.checked = true
			c.versionErr = &api.Error{
				Code:    api.CodeVersionMismatch,
				Message: "server exposes no " + api.PathPrefix + "/version endpoint",
				Detail:  "client speaks " + api.VersionString(),
			}
			return c.versionErr
		}
		return err
	}
	if v.Major != api.Major {
		c.checked = true
		c.versionErr = &api.Error{
			Code:    api.CodeVersionMismatch,
			Message: fmt.Sprintf("server speaks protocol v%d.%d, client %s", v.Major, v.Minor, api.VersionString()),
		}
		return c.versionErr
	}
	c.version = v
	c.checked = true
	return nil
}

// f64Minor is the first protocol minor whose servers accept the binary
// query body (api.MediaTypeF64).
const f64Minor = 3

// baseSpeaksF64 reports whether the handshake saw the client's own base
// report a protocol minor that accepts binary query bodies. c.version
// is set only by a successful handshake, so without one
// (WithoutVersionCheck, or a refused server) the answer is no.
func (c *Client) baseSpeaksF64() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version.Minor >= f64Minor
}

// call is the checked request path every endpoint method uses: version
// handshake, then one JSON round trip — retried under the client's
// retry policy when one is configured (WithRetry), with cluster
// redirects followed transparently.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	_, err := c.callBase(ctx, c.base, method, path, in, out)
	return err
}

// maxRedirectHops bounds how many node_redirect answers one call will
// follow. Ownership in a static ring resolves in one hop; a second
// tolerates a membership disagreement mid-rollout; beyond that the
// cluster is misconfigured (a redirect loop) and the typed error
// surfaces to the caller.
const maxRedirectHops = 3

// callBase is call starting from an explicit base URL, returning the
// base that finally answered — the handle-pinning primitive: a session
// opened via redirect must keep talking to the node that owns it.
func (c *Client) callBase(ctx context.Context, base, method, path string, in, out any) (string, error) {
	if err := c.ensureCompatible(ctx); err != nil {
		return base, err
	}
	var err error
	for hop := 0; ; hop++ {
		err = c.doRetry(ctx, base, method, path, in, out)
		if err == nil {
			return base, nil
		}
		target := redirectTarget(err)
		if target == "" || hop >= maxRedirectHops {
			return base, err
		}
		base = target
	}
}

// redirectTarget extracts the owner base URL from a node_redirect
// envelope, "" when err is anything else (or the target is not a
// well-formed http(s) URL — a malformed redirect is surfaced, never
// followed).
func redirectTarget(err error) string {
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNodeRedirect || ae.RedirectTo == "" {
		return ""
	}
	u, perr := url.Parse(ae.RedirectTo)
	if perr != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return ""
	}
	return strings.TrimRight(ae.RedirectTo, "/")
}

// f64Body is a query request already encoded as a binary body
// (api.MediaTypeF64).
type f64Body []byte

// do performs one round trip: a JSON request body (or a pre-encoded
// f64Body), a JSON response. Non-2xx responses decode into the
// protocol's *api.Error envelope (synthesizing one with code "internal"
// when the body is not an envelope, e.g. a plain-text 404 from the
// mux), so every error this package returns carries a code.
func (c *Client) do(ctx context.Context, base, method, path string, in, out any) error {
	var body io.Reader
	contentType := "application/json"
	switch in := in.(type) {
	case nil:
	case f64Body:
		body, contentType = bytes.NewReader(in), api.MediaTypeF64
	default:
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding %s %s request: %w", method, path, err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return fmt.Errorf("client: building %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody))
	if err != nil {
		return fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		// The Retry-After header is protocol (mirrored from the envelope's
		// retry_after); fold it back in so retry logic sees one hint even
		// when only the header carries it (a proxy-injected 429, say).
		retryAfter := 0
		if ra, convErr := strconv.Atoi(resp.Header.Get("Retry-After")); convErr == nil && ra > 0 {
			retryAfter = ra
		}
		var e api.Error
		if json.Unmarshal(data, &e) == nil && e.Code != "" {
			if e.RetryAfter == 0 {
				e.RetryAfter = retryAfter
			}
			return &e
		}
		return &statusError{
			status: resp.StatusCode,
			e: &api.Error{
				Code:       api.CodeInternal,
				Message:    fmt.Sprintf("%s %s: HTTP %d", method, path, resp.StatusCode),
				Detail:     truncate(string(data), 200),
				RetryAfter: retryAfter,
			},
		}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// statusError is a synthesized envelope (a non-protocol error body)
// carrying the raw HTTP status structurally, so the version handshake
// can recognize a pre-versioning server without parsing message text.
// It unwraps to its *api.Error, so api.CodeOf sees through it.
type statusError struct {
	e      *api.Error
	status int
}

func (s *statusError) Error() string { return s.e.Error() }
func (s *statusError) Unwrap() error { return s.e }

func truncate(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// Health probes the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	var h api.Health
	return c.do(ctx, c.base, http.MethodGet, "/healthz", nil, &h)
}

// Victims lists the server's registered victims with serving stats.
func (c *Client) Victims(ctx context.Context) ([]api.VictimStats, error) {
	var out []api.VictimStats
	err := c.call(ctx, http.MethodGet, api.PathPrefix+"/victims", nil, &out)
	return out, err
}

// Stats fetches a point-in-time service snapshot.
func (c *Client) Stats(ctx context.Context) (api.Stats, error) {
	var out api.Stats
	err := c.call(ctx, http.MethodGet, api.PathPrefix+"/stats", nil, &out)
	return out, err
}

// RunCampaign runs (or fetches from the server's artifact cache) one
// extraction/evasion campaign.
func (c *Client) RunCampaign(ctx context.Context, req api.CampaignRequest) (*api.CampaignResult, error) {
	var out api.CampaignResult
	if err := c.call(ctx, http.MethodPost, api.PathPrefix+"/campaigns", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RunExtract runs (or fetches from the server's artifact cache) one
// power-side-channel extraction job.
func (c *Client) RunExtract(ctx context.Context, req api.ExtractRequest) (*api.ExtractResult, error) {
	var out api.ExtractResult
	if err := c.call(ctx, http.MethodPost, api.PathPrefix+"/extract", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
