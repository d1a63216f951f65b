package client_test

// Tests of the SDK's body choice for session queries: the binary body
// (api.MediaTypeF64) goes only to a node whose own version the
// handshake saw report v2.3 or later, and only for rows the format can
// carry; every other call sends the JSON body it always sent.

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xbarsec/api"
	"xbarsec/client"
)

// versionCurrent answers the handshake as a server of the SDK's own
// protocol version (v2.3 or later, so it accepts binary query bodies).
func versionCurrent(w http.ResponseWriter) {
	_ = json.NewEncoder(w).Encode(api.VersionInfo{Version: api.VersionString(), Major: api.Major, Minor: api.Minor})
}

// sentBody is one query request as a fake node received it.
type sentBody struct {
	contentType string
	body        []byte
}

// queryNode is a fake node speaking protocol v2.<minor> that records
// every query request and answers it with an empty success.
type queryNode struct {
	*httptest.Server
	mu   sync.Mutex
	sent []sentBody
}

func newQueryNode(t *testing.T, minor int) *queryNode {
	t.Helper()
	n := &queryNode{}
	n.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == api.PathPrefix+"/version":
			_ = json.NewEncoder(w).Encode(api.VersionInfo{Major: api.Major, Minor: minor})
		case strings.HasSuffix(r.URL.Path, "/query") || strings.HasSuffix(r.URL.Path, "/queries"):
			body, _ := io.ReadAll(r.Body)
			n.mu.Lock()
			n.sent = append(n.sent, sentBody{r.Header.Get("Content-Type"), body})
			n.mu.Unlock()
			_, _ = w.Write([]byte("{}"))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(n.Close)
	return n
}

// bodies returns the requests the node has received so far.
func (n *queryNode) bodies() []sentBody {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]sentBody(nil), n.sent...)
}

// TestQueryBodyFollowsVersion pins the selection rule: a v2.2 node gets
// JSON, a v2.3 node gets binary from the first call on a fresh client
// (the handshake runs first), and the binary body decodes to exactly
// the rows the caller passed.
func TestQueryBodyFollowsVersion(t *testing.T) {
	rows := [][]float64{{1, -0.5, 3e-310}, {math.MaxFloat64, 0, -7}}
	for _, tc := range []struct {
		minor int
		want  string
	}{{2, "application/json"}, {3, api.MediaTypeF64}} {
		node := newQueryNode(t, tc.minor)
		c, err := client.New(node.URL)
		if err != nil {
			t.Fatal(err)
		}
		sess := c.SessionByID("s-1")
		ctx := context.Background()
		if _, err := sess.Query(ctx, rows[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.QueryBatch(ctx, rows); err != nil {
			t.Fatal(err)
		}
		sent := node.bodies()
		if len(sent) != 2 || sent[0].contentType != tc.want || sent[1].contentType != tc.want {
			t.Fatalf("v2.%d node received %+v, want two %s bodies", tc.minor, sent, tc.want)
		}
		if tc.want != api.MediaTypeF64 {
			continue
		}
		one, err := api.ParseF64Rows(sent[0].body, 3, 1)
		if err != nil || !reflect.DeepEqual(one, rows[:1]) {
			t.Fatalf("query body decodes to %v, %v", one, err)
		}
		both, err := api.ParseF64Rows(sent[1].body, 3, 2)
		if err != nil || !reflect.DeepEqual(both, rows) {
			t.Fatalf("batch body decodes to %v, %v", both, err)
		}
	}
}

// TestQueryBodyWithoutVersionCheckIsJSON: without a handshake the SDK
// has seen no version, so even a v2.3 node gets JSON.
func TestQueryBodyWithoutVersionCheckIsJSON(t *testing.T) {
	node := newQueryNode(t, 3)
	c, err := client.New(node.URL, client.WithoutVersionCheck())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionByID("s-1").Query(context.Background(), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if sent := node.bodies(); len(sent) != 1 || sent[0].contentType != "application/json" {
		t.Fatalf("received %+v, want one JSON body", sent)
	}
}

// TestQueryBodyFallsBackToJSON: rows the binary format cannot carry go
// as JSON to a v2.3 node, so each call meets the server (or the JSON
// encoder) exactly as it did before the binary body existed.
func TestQueryBodyFallsBackToJSON(t *testing.T) {
	node := newQueryNode(t, 3)
	c, err := client.New(node.URL)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.SessionByID("s-1")
	ctx := context.Background()
	for name, rows := range map[string][][]float64{
		"empty batch": nil,
		"ragged":      {{1, 2}, {3}},
		"empty row":   {{}},
	} {
		if _, err := sess.QueryBatch(ctx, rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := sess.Query(ctx, nil); err != nil {
		t.Fatal(err)
	}
	sent := node.bodies()
	if len(sent) != 4 {
		t.Fatalf("node received %d queries, want 4", len(sent))
	}
	for i, s := range sent {
		if s.contentType != "application/json" {
			t.Fatalf("query %d went as %s: %q", i, s.contentType, s.body)
		}
	}
	// Non-finite rows fail in the JSON encoder, before any request, as
	// they always have.
	for _, rows := range [][][]float64{{{math.NaN()}}, {{1}, {math.Inf(-1)}}} {
		if _, err := sess.QueryBatch(ctx, rows); err == nil || !strings.Contains(err.Error(), "unsupported value") {
			t.Fatalf("non-finite batch err = %v, want the JSON encoding error", err)
		}
	}
	if _, err := sess.Query(ctx, []float64{math.Inf(1)}); err == nil || !strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("non-finite query err = %v, want the JSON encoding error", err)
	}
	if n := len(node.bodies()); n != 4 {
		t.Fatalf("non-finite rows reached the node: %d queries", n)
	}
}
