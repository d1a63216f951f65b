package client_test

// Redirect-following tests against fake servers: the SDK must follow a
// typed node_redirect to the named peer, bound the hop count, refuse
// malformed targets, and pin session handles to the node that opened
// them.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"xbarsec/api"
	"xbarsec/client"
)

// redirectTo writes the typed node_redirect envelope.
func redirectTo(w http.ResponseWriter, target string) {
	w.WriteHeader(api.CodeNodeRedirect.HTTPStatus())
	_ = json.NewEncoder(w).Encode(&api.Error{
		Code: api.CodeNodeRedirect, Message: "key owned elsewhere", RedirectTo: target,
	})
}

// TestRedirectFollowed pins the happy path: the wrong node answers 421
// with the owner's URL and the SDK re-issues the request there — one
// hop, transparent to the caller.
func TestRedirectFollowed(t *testing.T) {
	var ownerHits atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathPrefix+"/experiments" {
			http.NotFound(w, r)
			return
		}
		ownerHits.Add(1)
		_ = json.NewEncoder(w).Encode(api.Job{
			ID: "job-1@b", Status: api.JobDone,
			Result: &api.ExperimentResult{Name: "x", Render: "owner ran this"},
		})
	}))
	defer owner.Close()

	var wrongHits atomic.Int64
	wrong := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.PathPrefix + "/version":
			versionOK(w)
		case api.PathPrefix + "/experiments":
			wrongHits.Add(1)
			redirectTo(w, owner.URL)
		default:
			http.NotFound(w, r)
		}
	}))
	defer wrong.Close()

	c, err := client.New(wrong.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunExperiment(context.Background(), api.ExperimentSpec{Name: "x", Seed: 1})
	if err != nil {
		t.Fatalf("redirected run: %v", err)
	}
	if res.Render != "owner ran this" {
		t.Fatalf("result = %+v", res)
	}
	if wrongHits.Load() != 1 || ownerHits.Load() != 1 {
		t.Fatalf("hits = %d wrong / %d owner, want 1 / 1", wrongHits.Load(), ownerHits.Load())
	}
}

// TestRedirectHopsBounded pins the loop guard: a server that always
// redirects (here: to itself) exhausts the hop budget and the typed
// error surfaces instead of an unbounded chase.
func TestRedirectHopsBounded(t *testing.T) {
	var hits atomic.Int64
	var url string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathPrefix+"/version" {
			versionOK(w)
			return
		}
		hits.Add(1)
		redirectTo(w, url)
	}))
	defer srv.Close()
	url = srv.URL

	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Stats(context.Background())
	if api.CodeOf(err) != api.CodeNodeRedirect {
		t.Fatalf("err = %v, want the typed node_redirect surfaced", err)
	}
	// The first attempt plus maxRedirectHops follow-ups, then give up.
	if got := hits.Load(); got != 4 {
		t.Fatalf("server hit %d times, want 4 (1 + 3 hops)", got)
	}
}

// TestRedirectMalformedTargetNotFollowed pins the safety check: a
// redirect without a usable http(s) target is an error, not a request
// to an arbitrary address.
func TestRedirectMalformedTargetNotFollowed(t *testing.T) {
	for _, target := range []string{"", "ftp://evil", "http://", "not a url"} {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == api.PathPrefix+"/version" {
				versionOK(w)
				return
			}
			hits.Add(1)
			redirectTo(w, target)
		}))
		c, err := client.New(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Stats(context.Background())
		if api.CodeOf(err) != api.CodeNodeRedirect {
			t.Fatalf("target %q: err = %v, want node_redirect surfaced", target, err)
		}
		if hits.Load() != 1 {
			t.Fatalf("target %q followed: %d hits, want 1", target, hits.Load())
		}
		srv.Close()
	}
}

// TestRedirectSessionPinned pins the handle contract: a session opened
// through a redirect sends every subsequent call to the node that
// opened it — session state is node-local, queries must not wander back
// to the client's base. The handshake saw only the base's version, so
// the pinned queries go as JSON even though the base speaks v2.3.
func TestRedirectSessionPinned(t *testing.T) {
	var ownerOpens, ownerQueries atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.PathPrefix + "/sessions":
			ownerOpens.Add(1)
			_ = json.NewEncoder(w).Encode(api.Session{ID: "s-1", Victim: "toy", Remaining: 3})
		case api.PathPrefix + "/sessions/s-1/query":
			if ct := r.Header.Get("Content-Type"); ct != "application/json" {
				http.Error(w, "pinned query sent as "+ct, http.StatusUnsupportedMediaType)
				return
			}
			ownerQueries.Add(1)
			_ = json.NewEncoder(w).Encode(api.QueryResponse{Label: 7, Queries: 1, Remaining: 2})
		default:
			http.NotFound(w, r)
		}
	}))
	defer owner.Close()

	var wrongAfterOpen atomic.Int64
	opened := false
	wrong := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.PathPrefix + "/version":
			versionCurrent(w)
		case api.PathPrefix + "/sessions":
			opened = true
			redirectTo(w, owner.URL)
		default:
			if opened {
				wrongAfterOpen.Add(1)
			}
			http.NotFound(w, r)
		}
	}))
	defer wrong.Close()

	c, err := client.New(wrong.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "toy", Mode: api.ModeLabelOnly, Budget: 3})
	if err != nil {
		t.Fatalf("redirected open: %v", err)
	}
	qr, err := sess.Query(ctx, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("query on pinned handle: %v", err)
	}
	if qr.Label != 7 || qr.Remaining != 2 {
		t.Fatalf("query = %+v", qr)
	}
	if ownerOpens.Load() != 1 || ownerQueries.Load() != 1 {
		t.Fatalf("owner saw %d opens / %d queries, want 1 / 1", ownerOpens.Load(), ownerQueries.Load())
	}
	if wrongAfterOpen.Load() != 0 {
		t.Fatalf("wrong node saw %d calls after the open — handle not pinned", wrongAfterOpen.Load())
	}
}
