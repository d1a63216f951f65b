package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"testing"

	"xbarsec/api"
	"xbarsec/client"
)

// Tests of the two query body encodings (api.MediaTypeF64 next to
// JSON). Requests are posted raw so each test picks its encoding; the
// SDK's choice between them is tested in xbarsec/client.

// postQuery posts body to one of a session's query endpoints ("query"
// or "queries") and returns the status and the raw response body.
func postQuery(t *testing.T, ts *httptest.Server, id, endpoint, contentType string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+api.PathPrefix+"/sessions/"+id+"/"+endpoint, contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// queryBodies encodes rows for an endpoint both ways: the JSON request
// and the binary body.
func queryBodies(t *testing.T, endpoint string, rows [][]float64) (jsonBody, f64Body []byte) {
	t.Helper()
	var req any = api.QueryBatchRequest{Inputs: rows}
	if endpoint == "query" {
		req = api.QueryRequest{Input: rows[0]}
	}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if f64Body, err = api.AppendF64Rows(nil, rows); err != nil {
		t.Fatal(err)
	}
	return jsonBody, f64Body
}

// openRaw opens a raw-output, power-measuring session with the given
// budget.
func openRaw(t *testing.T, c *client.Client, victim string, budget int) *client.Session {
	t.Helper()
	sess, err := c.OpenSession(context.Background(), api.OpenSessionRequest{
		Victim: victim, Mode: api.ModeRawOutput, MeasurePower: true, Budget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// charged returns a session's current query count.
func charged(t *testing.T, sess *client.Session) int {
	t.Helper()
	info, err := sess.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return info.Queries
}

// TestQueryBodyEncodingsByteIdentical pins the binary body's contract:
// the same inputs, sent as JSON to one session and as binary to a twin
// session of the same noise-free victim, draw byte-identical response
// bodies — single queries, a batch that runs out of budget part-way,
// and a batch refused whole.
func TestQueryBodyEncodingsByteIdentical(t *testing.T) {
	c, ts, v := httpFixture(t)
	viaJSON, viaF64 := openRaw(t, c, "mnist-toy", 5), openRaw(t, c, "mnist-toy", 5)
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = v.test.X.Row(i)
	}
	steps := []struct {
		endpoint   string
		rows       [][]float64
		wantStatus int
	}{
		{"query", rows[:1], http.StatusOK},
		{"query", rows[1:2], http.StatusOK},
		// Budget 5, 2 spent: 3 of these 6 are answered, 3 refused.
		{"queries", rows[2:8], http.StatusOK},
		{"queries", rows[:2], http.StatusTooManyRequests},
		{"query", rows[:1], http.StatusTooManyRequests},
	}
	for i, st := range steps {
		jsonBody, f64Body := queryBodies(t, st.endpoint, st.rows)
		jsonStatus, jsonResp := postQuery(t, ts, viaJSON.ID(), st.endpoint, "application/json", bytes.NewReader(jsonBody))
		f64Status, f64Resp := postQuery(t, ts, viaF64.ID(), st.endpoint, api.MediaTypeF64, bytes.NewReader(f64Body))
		if jsonStatus != st.wantStatus || f64Status != st.wantStatus {
			t.Fatalf("step %d: status %d (JSON) / %d (binary), want %d: %s", i, jsonStatus, f64Status, st.wantStatus, f64Resp)
		}
		if !bytes.Equal(jsonResp, f64Resp) {
			t.Fatalf("step %d: response bodies differ:\n JSON   %s\n binary %s", i, jsonResp, f64Resp)
		}
		if i == 2 {
			var out api.QueryBatchResponse
			if err := json.Unmarshal(f64Resp, &out); err != nil {
				t.Fatal(err)
			}
			for k, o := range out.Results {
				if refused := k >= 3; refused != (o.Error != nil && o.Error.Code == api.CodeBudgetExhausted) || refused == (o.Raw != nil) {
					t.Fatalf("outcome %d = %+v, want refused=%v", k, o, refused)
				}
			}
		}
	}
	if charged(t, viaJSON) != 5 || charged(t, viaF64) != 5 {
		t.Fatal("sessions were not charged their whole budget")
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestF64BodyValidation posts one malformed binary body per validation
// rule. Each must draw a typed 400 naming the broken rule and leave the
// session uncharged.
func TestF64BodyValidation(t *testing.T) {
	c, ts, v := httpFixture(t)
	sess := openRaw(t, c, "mnist-toy", 10)
	cols := v.Inputs()
	header := func(rows, cols uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, rows), cols)
	}
	valid := func(rows int) []byte {
		return append(header(uint32(rows), uint32(cols)), make([]byte, 8*rows*cols)...)
	}
	withValue := func(bits uint64) []byte {
		body := valid(2)
		binary.LittleEndian.PutUint64(body[8+8*(cols+3):], bits)
		return body
	}
	cases := []struct {
		name, endpoint string
		body           io.Reader
		want           string
	}{
		{"wrong cols", "queries", bytes.NewReader(append(header(1, uint32(cols+1)), make([]byte, 8*(cols+1))...)), fmt.Sprintf("want %d", cols)},
		{"wrong cols on query", "query", bytes.NewReader(append(header(1, uint32(cols-1)), make([]byte, 8*(cols-1))...)), fmt.Sprintf("want %d", cols)},
		{"zero rows", "queries", bytes.NewReader(header(0, uint32(cols))), "0 rows"},
		{"rows over the batch limit", "queries", bytes.NewReader(append(header(maxQueryBatch+1, uint32(cols)), make([]byte, 64)...)), "4097 rows, want 1..4096"},
		{"two rows on query", "query", bytes.NewReader(valid(2)), "want 1..1"},
		{"no header", "query", bytes.NewReader(nil), "header"},
		{"truncated", "queries", bytes.NewReader(valid(2)[:8+16*cols-1]), "does not hold"},
		{"trailing bytes", "queries", bytes.NewReader(append(valid(2), 0)), "does not hold"},
		{"trailing bytes on query", "query", bytes.NewReader(append(valid(1), 0)), "does not hold"},
		{"NaN", "queries", bytes.NewReader(withValue(math.Float64bits(math.NaN()))), "NaN"},
		{"+Inf", "queries", bytes.NewReader(withValue(math.Float64bits(math.Inf(1)))), "+Inf"},
		{"-Inf", "query", bytes.NewReader(append(header(1, uint32(cols)), binary.LittleEndian.AppendUint64(make([]byte, 8*(cols-1)), math.Float64bits(math.Inf(-1)))...)), "-Inf"},
		// Past the 128 MiB request cap: streamed, and drained unstored.
		{"oversize", "queries", io.MultiReader(bytes.NewReader(valid(1)), io.LimitReader(zeros{}, maxRequestBody)), "too large"},
	}
	for _, tc := range cases {
		status, resp := postQuery(t, ts, sess.ID(), tc.endpoint, api.MediaTypeF64, tc.body)
		var e api.Error
		if err := json.Unmarshal(resp, &e); err != nil {
			t.Fatalf("%s: non-envelope body %q", tc.name, resp)
		}
		if status != http.StatusBadRequest || e.Code != api.CodeBadRequest || !strings.Contains(e.Detail, tc.want) {
			t.Fatalf("%s: status %d envelope %+v, want 400 bad_request mentioning %q", tc.name, status, e, tc.want)
		}
		if q := charged(t, sess); q != 0 {
			t.Fatalf("%s: charged %d queries", tc.name, q)
		}
	}
	// The session still answers a well-formed binary body.
	if status, resp := postQuery(t, ts, sess.ID(), "queries", api.MediaTypeF64, bytes.NewReader(valid(2))); status != http.StatusOK {
		t.Fatalf("valid body after the rejections: %d %s", status, resp)
	}
}

// TestF64BodyRejectedHeaderDrained: a body whose header is refused is
// decoded no further, but the rest of it is drained unstored, so the
// typed 400 reaches the client on a connection that stays open, and the
// same keep-alive client's next query reuses it and succeeds.
func TestF64BodyRejectedHeaderDrained(t *testing.T) {
	c, ts, v := httpFixture(t)
	sess := openRaw(t, c, "mnist-toy", 10)
	cols := v.Inputs()
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)
	post := func(body []byte, payload int64) (status int, resp []byte, reused bool) {
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), http.MethodPost,
			ts.URL+api.PathPrefix+"/sessions/"+sess.ID()+"/queries", io.MultiReader(bytes.NewReader(body), io.LimitReader(zeros{}, payload)))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = int64(len(body)) + payload
		req.Header.Set("Content-Type", api.MediaTypeF64)
		r, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if resp, err = io.ReadAll(r.Body); err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, resp, reused
	}
	header := func(rows, cols int) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(rows)), uint32(cols))
	}
	status, resp, _ := post(header(1, cols+1), 8<<20)
	var e api.Error
	if err := json.Unmarshal(resp, &e); err != nil {
		t.Fatalf("non-envelope body %q", resp)
	}
	if status != http.StatusBadRequest || e.Code != api.CodeBadRequest || !strings.Contains(e.Detail, fmt.Sprintf("want %d", cols)) {
		t.Fatalf("status %d envelope %+v, want 400 bad_request naming the row width", status, e)
	}
	status, resp, reused := post(header(1, cols), int64(8*cols))
	if status != http.StatusOK {
		t.Fatalf("next query: status %d body %s", status, resp)
	}
	if !reused {
		t.Fatal("the next query did not reuse the rejected request's connection")
	}
	if q := charged(t, sess); q != 1 {
		t.Fatalf("charged %d queries, want 1", q)
	}
}

// TestF64BodyDeclaredLengthNotPreallocated: the server's buffer grows
// with the bytes that arrive, never from a declared length. Requests
// that declare the largest valid /queries body (Content-Length and
// header alike) and send only the 8-byte header must draw their typed
// 400 without allocating anywhere near that length.
func TestF64BodyDeclaredLengthNotPreallocated(t *testing.T) {
	c, ts, v := httpFixture(t)
	sess := openRaw(t, c, "mnist-toy", 10)
	limit := uint64(8 + 8*maxQueryBatch*v.Inputs())
	header := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, maxQueryBatch), uint32(v.Inputs()))
	const requests = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range requests {
		req := httptest.NewRequest(http.MethodPost, api.PathPrefix+"/sessions/"+sess.ID()+"/queries", bytes.NewReader(header))
		req.ContentLength = int64(limit)
		req.Header.Set("Content-Type", api.MediaTypeF64)
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d body %q, want a typed 400", rec.Code, rec.Body)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit/2 {
		t.Fatalf("%d requests declaring %d bytes and sending 8 allocated %d bytes", requests, limit, got)
	}
	if q := charged(t, sess); q != 0 {
		t.Fatalf("charged %d queries", q)
	}
}

// TestNonFiniteResponseNotCharged pins the accounting contract at the
// float64 limit: inputs of 1.7e308 overflow the raw outputs and the
// power reading, a response no encoding can carry. The query must fail
// typed (400) and uncharged, over both body encodings, singly and
// batched.
func TestNonFiniteResponseNotCharged(t *testing.T) {
	c, ts, v := httpFixture(t)
	huge := make([]float64, v.Inputs())
	for i := range huge {
		huge[i] = 1.7e308
	}
	for _, endpoint := range []string{"query", "queries"} {
		rows := [][]float64{huge}
		if endpoint == "queries" {
			rows = append(rows, huge)
		}
		jsonBody, f64Body := queryBodies(t, endpoint, rows)
		for contentType, body := range map[string][]byte{"application/json": jsonBody, api.MediaTypeF64: f64Body} {
			sess := openRaw(t, c, "mnist-toy", 10)
			status, resp := postQuery(t, ts, sess.ID(), endpoint, contentType, bytes.NewReader(body))
			var e api.Error
			if err := json.Unmarshal(resp, &e); err != nil || status != http.StatusBadRequest || e.Code != api.CodeBadRequest {
				t.Fatalf("%s as %s: status %d body %q, want a typed 400", endpoint, contentType, status, resp)
			}
			if q := charged(t, sess); q != 0 {
				t.Fatalf("%s as %s: charged %d queries for an undelivered response", endpoint, contentType, q)
			}
		}
	}
}

// TestNonFiniteExtractionNotCached pins the extraction side of the same
// overflow: a probe noise of 1e308 overflows the signals, so the job
// fails typed and its unencodable result never enters the artifact
// cache.
func TestNonFiniteExtractionNotCached(t *testing.T) {
	c, _, _ := httpFixture(t)
	ctx := context.Background()
	spec := api.ExtractRequest{Victim: "mnist-toy", NoiseStd: 1e308, Seed: 3}
	for attempt := range 2 {
		if _, err := c.RunExtract(ctx, spec); api.CodeOf(err) != api.CodeBadRequest {
			t.Fatalf("attempt %d: err = %v, want code %s", attempt, err, api.CodeBadRequest)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CachedArtifacts != 0 {
		t.Fatalf("cached_artifacts = %d after failed extractions", st.CachedArtifacts)
	}
}

// TestWriteJSONUnencodable pins writeJSON's order: marshal first, so a
// value JSON cannot carry becomes a typed internal envelope, never a 200
// with an empty body; an encodable value keeps json.Encoder's bytes.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, api.QueryResponse{Power: math.Inf(1)})
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError || e.Code != api.CodeInternal {
		t.Fatalf("status %d body %q, want a typed 500", rec.Code, rec.Body)
	}

	v := api.QueryResponse{Label: 3, Raw: []float64{0.1, -2e-300}, Power: 1.5, Queries: 1}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, v)
	if rec.Code != http.StatusCreated || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("status %d body %q, want %q", rec.Code, rec.Body, want.Bytes())
	}
}
