package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xbarsec/api"
	"xbarsec/client"
)

// decodeBody decodes one raw HTTP response body.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// The HTTP layer is tested through the client SDK: the tests below
// exercise the same protocol surface an external consumer uses (typed
// api structs in, typed api errors out). Raw net/http appears only
// where the wire itself is the point (unknown-field rejection, CSV
// export). The SDK's own round-trip suite lives in xbarsec/client.

// httpFixture boots a service with one victim behind httptest and
// returns an SDK client for it.
func httpFixture(t *testing.T) (*client.Client, *httptest.Server, *Victim) {
	t.Helper()
	v := buildTestVictim(t, "mnist-toy", 11)
	s := newTestService(t, Config{Seed: 11, Workers: 2}, v)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, ts, v
}

func TestHTTPSessionLifecycle(t *testing.T) {
	c, _, v := httpFixture(t)
	ctx := context.Background()

	victims, err := c.Victims(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0].Name != "mnist-toy" || victims[0].Inputs != 100 {
		t.Fatalf("victims = %+v", victims)
	}

	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{
		Victim: "mnist-toy", Mode: api.ModeRawOutput, MeasurePower: true, Budget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() == "" || sess.Info().Remaining != 2 || sess.Info().Mode != api.ModeRawOutput {
		t.Fatalf("session = %+v", sess.Info())
	}

	qr, err := sess.Query(ctx, v.test.X.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Raw) != 10 || qr.Power <= 0 || qr.Queries != 1 || qr.Remaining != 1 {
		t.Fatalf("query response = %+v", qr)
	}
	// Responses must match the direct in-process session path exactly
	// (modulo JSON float round-trip, which is exact for float64).
	wantLabel, err := v.hw.Predict(v.test.X.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if qr.Label != wantLabel {
		t.Fatalf("label = %d, want %d", qr.Label, wantLabel)
	}

	if _, err := sess.Query(ctx, v.test.X.Row(1)); err != nil {
		t.Fatal(err)
	}
	// Budget exhausted -> typed code, 429 on the wire.
	if _, err := sess.Query(ctx, v.test.X.Row(2)); api.CodeOf(err) != api.CodeBudgetExhausted {
		t.Fatalf("exhausted query err = %v, want code %s", err, api.CodeBudgetExhausted)
	}

	info, err := sess.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Queries != 2 || info.Remaining != 0 {
		t.Fatalf("session info = %+v", info)
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Refresh(ctx); api.CodeOf(err) != api.CodeUnknownSession {
		t.Fatalf("closed session err = %v, want code %s", err, api.CodeUnknownSession)
	}
}

func TestHTTPValidationAndErrors(t *testing.T) {
	c, ts, v := httpFixture(t)
	ctx := context.Background()
	// Unknown victim.
	if _, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "nope"}); api.CodeOf(err) != api.CodeUnknownVictim {
		t.Fatalf("unknown victim err = %v", err)
	}
	// Bad mode.
	if _, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "mnist-toy", Mode: "psychic"}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("bad mode err = %v", err)
	}
	// Unknown fields rejected, with the envelope carrying the typed code
	// and the decoder detail.
	resp, err := http.Post(ts.URL+api.PathPrefix+"/sessions", "application/json",
		strings.NewReader(`{"victim":"mnist-toy","surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var envelope api.Error
	if err := decodeBody(resp, &envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || envelope.Code != api.CodeBadRequest || envelope.Detail == "" {
		t.Fatalf("unknown field: status %d envelope %+v", resp.StatusCode, envelope)
	}
	// Short input is a typed bad request, not a 500, and charges nothing.
	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "mnist-toy"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, []float64{1, 2}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("short input err = %v", err)
	}
	info, err := sess.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Queries != 0 {
		t.Fatalf("malformed query charged budget: %+v", info)
	}
	// Campaign validation.
	if _, err := c.RunCampaign(ctx, api.CampaignRequest{Victim: "mnist-toy", Mode: api.ModeLabelOnly}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("campaign validation err = %v", err)
	}
	_ = v
}

// TestHTTPCampaignExtractBadRequest pins the job-spec checks to a typed
// 400 on the wire. They live in the service, not the handlers, so a
// spec the handler does not look at (a session-only victim) is still a
// bad request, never an internal error.
func TestHTTPCampaignExtractBadRequest(t *testing.T) {
	v := buildTestVictim(t, "mnist-toy", 11)
	donor := buildTestVictim(t, "donor", 12)
	bare, err := NewVictim("bare", donor.net, donor.hw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Seed: 11, Workers: 2}, v, bare)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	cases := []struct {
		name, path, body string
	}{
		{"session-only victim", "/campaigns", `{"victim":"bare","mode":"label-only","queries":10}`},
		{"zero queries", "/campaigns", `{"victim":"mnist-toy","mode":"label-only","queries":0}`},
		{"negative noise", "/extract", `{"victim":"mnist-toy","noise_std":-1}`},
		{"unbounded surrogate epochs", "/campaigns", `{"victim":"mnist-toy","mode":"label-only","queries":10,"surrogate_epochs":1073741824}`},
		{"unbounded repeats", "/extract", `{"victim":"mnist-toy","repeats":1073741824}`},
		{"negative lambda", "/campaigns", `{"victim":"mnist-toy","mode":"label-only","queries":10,"lambda":-1}`},
		{"negative attack eps", "/campaigns", `{"victim":"mnist-toy","mode":"label-only","queries":10,"attack_eps":-0.5}`},
	}
	// An accepted unbounded job would compute for ever; the timeout
	// turns that into a failure instead of a hang.
	client := &http.Client{Timeout: 30 * time.Second}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(ts.URL+api.PathPrefix+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var envelope api.Error
			if err := decodeBody(resp, &envelope); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || envelope.Code != api.CodeBadRequest {
				t.Fatalf("status %d envelope %+v, want 400 %s", resp.StatusCode, envelope, api.CodeBadRequest)
			}
		})
	}
}

func TestHTTPVersion(t *testing.T) {
	c, _, _ := httpFixture(t)
	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Major != api.Major || v.Version != api.VersionString() {
		t.Fatalf("version = %+v", v)
	}
	if v.ExperimentsHash != RegistryHash() || v.Experiments == 0 {
		t.Fatalf("registry digest = %+v, want hash %s", v, RegistryHash())
	}
}

func TestHTTPCampaignAndExtract(t *testing.T) {
	c, ts, _ := httpFixture(t)
	ctx := context.Background()
	spec := api.CampaignRequest{Victim: "mnist-toy", Mode: api.ModeLabelOnly, Seed: 5, Queries: 25, SurrogateEpochs: 3}
	res, err := c.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.QueriesCharged != 25 || res.Mode != api.ModeLabelOnly {
		t.Fatalf("campaign = %+v", res)
	}
	again, err := c.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("replayed campaign must be cached")
	}
	again.Cached = res.Cached
	if *again != *res {
		t.Fatalf("cached campaign differs: %+v vs %+v", again, res)
	}

	ex, err := c.RunExtract(ctx, api.ExtractRequest{Victim: "mnist-toy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Signals) != 100 || len(ex.Norms) != 100 || ex.ProbeQueries != 100 {
		t.Fatalf("extract = signals:%d norms:%d queries:%d", len(ex.Signals), len(ex.Norms), ex.ProbeQueries)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Campaigns != 2 || st.CacheHits < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CachedArtifactBytes <= 0 {
		t.Fatalf("artifact byte gauge not populated: %+v", st)
	}

	// CSV stats export (raw wire: the SDK is JSON-only).
	resp, err := http.Get(ts.URL + api.PathPrefix + "/stats?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "victim,") || !strings.HasPrefix(lines[1], "mnist-toy,") {
		t.Fatalf("csv stats = %q", buf.String())
	}
}
