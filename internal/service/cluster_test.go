package service

// The cluster suite: ring-aware routing end to end (redirects followed
// by the SDK, sessions pinned to their owner), peer artifact fetch with
// Merkle provenance verification (accept the honest peer, reject every
// forged or tampered chain), the metrics endpoint, and — under
// TestChaosCluster* so `make chaos` picks it up — a crash of the owning
// node mid-job whose journal replay must still yield a verifiable
// artifact.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/cluster"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/faultinject"
	"xbarsec/internal/memo"
	"xbarsec/internal/wal"
)

// clusterBlockGate holds the cluster chaos experiment mid-run until
// closed (durBlockGate is already closed by the durability suite, so
// the cluster crash test needs its own gate).
var clusterBlockGate = make(chan struct{})

var registerClusterExperiments = sync.OnceFunc(func() {
	engine.Register(engine.Experiment{
		Name:  "svc-test-cluster-block",
		Title: "blocks until the cluster gate closes (cluster tests only)",
		Run: func(opts engine.Options) (engine.Result, error) {
			<-clusterBlockGate
			return durCompute("svc-test-cluster-block", opts.Seed), nil
		},
	})
})

// clusterListeners reserves one loopback address per node id BEFORE any
// service exists, so the ring (which needs every member's URL) can be
// built first and handed to all nodes.
func clusterListeners(t *testing.T, ids []string) ([]net.Listener, []cluster.Member) {
	t.Helper()
	lns := make([]net.Listener, len(ids))
	ms := make([]cluster.Member, len(ids))
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i] = ln
		ms[i] = cluster.Member{ID: id, URL: "http://" + ln.Addr().String()}
	}
	return lns, ms
}

// startNode serves a node on its reserved listener.
func startNode(t *testing.T, s *Service, ln net.Listener) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// specOwnedBy scans seeds until the ring places a svc-test-quick spec
// on the wanted node.
func specOwnedBy(t *testing.T, ring *cluster.Ring, nodeID string) ExperimentSpec {
	t.Helper()
	for seed := int64(1); seed <= 1000; seed++ {
		spec := ExperimentSpec{Name: "svc-test-quick", Seed: seed}
		if ring.Owner(specKey(specDefaults(spec))).ID == nodeID {
			return spec
		}
	}
	t.Fatalf("no seed in 1..1000 places the spec on node %s", nodeID)
	return ExperimentSpec{}
}

// TestClusterRedirectExperiment is the two-node acceptance test: a
// client pointed at the WRONG node runs an experiment, the SDK follows
// the node_redirect to the owner, and the result is bit-identical to a
// single-node run of the same spec.
func TestClusterRedirectExperiment(t *testing.T) {
	registerDurabilityExperiments()
	lns, members := clusterListeners(t, []string{"a", "b"})
	ring, err := cluster.New(members, 0, 11)
	if err != nil {
		t.Fatal(err)
	}

	// The single-node ground truth.
	spec := specOwnedBy(t, ring, "b")
	solo := newTestService(t, Config{Seed: 11, Workers: 2})
	want, err := solo.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}

	nodes := make([]*Service, 2)
	for i, id := range []string{"a", "b"} {
		nodes[i] = newTestService(t, Config{Seed: 11, Workers: 2,
			Cluster: &ClusterConfig{NodeID: id, Ring: ring}})
		startNode(t, nodes[i], lns[i])
	}
	ctx := context.Background()
	// members[1] ("b") owns the spec; the client talks to "a".
	c, err := client.New(members[0].URL)
	if err != nil {
		t.Fatal(err)
	}

	info, err := c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || len(info.Members) != 2 || info.RingHash != ring.Hash() {
		t.Fatalf("cluster info = %+v", info)
	}
	if !info.Members[0].Self || info.Members[1].Self {
		t.Fatalf("self marks = %+v, want only node a", info.Members)
	}

	res, err := c.RunExperiment(ctx, api.ExperimentSpec{Name: spec.Name, Seed: spec.Seed})
	if err != nil {
		t.Fatalf("redirected experiment: %v", err)
	}
	if res.Render != want.Render || !bytes.Equal(res.Result, want.Result) {
		t.Fatal("redirected result differs from the single-node run")
	}
	if got := nodes[0].Stats().RedirectsIssued; got < 1 {
		t.Fatalf("wrong node issued %d redirects, want >= 1", got)
	}
	if got := nodes[1].Stats().RedirectsIssued; got != 0 {
		t.Fatalf("owner issued %d redirects, want 0", got)
	}

	// The async path: launch lands on the owner (id carries its node),
	// and polls through the wrong node redirect to it.
	job, err := c.LaunchExperiment(ctx, api.ExperimentSpec{Name: spec.Name, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(job.ID, "@b") {
		t.Fatalf("job id = %q, want the owner's @b suffix", job.ID)
	}
	done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Result == nil || done.Result.Render != want.Render || !bytes.Equal(done.Result.Result, want.Result) {
		t.Fatal("polled job result differs from the single-node run")
	}
}

// TestClusterSessionRouting pins victim-scoped routing: a session open
// against the wrong node lands on the victim's owner and stays pinned
// there; campaigns route by the same key.
func TestClusterSessionRouting(t *testing.T) {
	lns, members := clusterListeners(t, []string{"a", "b"})
	ring, err := cluster.New(members, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Service, 2)
	victims := make([]*Victim, 2)
	for i, id := range []string{"a", "b"} {
		// Every node trains the victim from the shared seed — the cluster
		// contract that makes ownership a pure routing question.
		victims[i] = buildTestVictim(t, "mnist-toy", 23)
		nodes[i] = newTestService(t, Config{Seed: 23, Workers: 2,
			Cluster: &ClusterConfig{NodeID: id, Ring: ring}}, victims[i])
		startNode(t, nodes[i], lns[i])
	}
	ownerID := ring.Owner(victimKey("mnist-toy")).ID
	wrong, owner := 0, 1
	if members[0].ID == ownerID {
		wrong, owner = 1, 0
	}
	ctx := context.Background()
	c, err := client.New(members[wrong].URL)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{
		Victim: "mnist-toy", Mode: api.ModeRawOutput, Budget: 3,
	})
	if err != nil {
		t.Fatalf("redirected open: %v", err)
	}
	qr, err := sess.Query(ctx, victims[owner].test.X.Row(0))
	if err != nil {
		t.Fatalf("query on the pinned handle: %v", err)
	}
	if qr.Remaining != 2 {
		t.Fatalf("remaining = %d, want 2", qr.Remaining)
	}
	if got := nodes[owner].Stats().Sessions; got != 1 {
		t.Fatalf("owner holds %d sessions, want 1", got)
	}
	if got := nodes[wrong].Stats().Sessions; got != 0 {
		t.Fatalf("wrong node holds %d sessions, want 0", got)
	}

	// Campaigns ride the same victim key.
	cres, err := c.RunCampaign(ctx, api.CampaignRequest{Victim: "mnist-toy", Mode: api.ModeLabelOnly, Queries: 40})
	if err != nil {
		t.Fatalf("redirected campaign: %v", err)
	}
	if cres.QueriesCharged != 40 {
		t.Fatalf("campaign charged %d, want 40", cres.QueriesCharged)
	}
	if got := nodes[owner].Stats().Campaigns; got != 1 {
		t.Fatalf("owner served %d campaigns, want 1", got)
	}
	if got := nodes[wrong].Stats().Campaigns; got != 0 {
		t.Fatalf("wrong node served %d campaigns, want 0", got)
	}

	// A spec malformed without looking at the victim is refused by the
	// node that receives it, not redirected to the owner first.
	for path, body := range map[string]string{
		"/campaigns": `{"victim":"mnist-toy","mode":"label-only","queries":0}`,
		"/extract":   `{"victim":"mnist-toy","noise_std":-1}`,
	} {
		resp, err := http.Post(members[wrong].URL+api.PathPrefix+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope api.Error
		if err := decodeBody(resp, &envelope); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || envelope.Code != api.CodeBadRequest {
			t.Fatalf("%s at the wrong node: status %d envelope %+v, want 400 %s",
				path, resp.StatusCode, envelope, api.CodeBadRequest)
		}
	}
}

// TestClusterPeerFetchVerified pins the artifact exchange: a node that
// owns a key another node already computed fetches the artifact, checks
// the Merkle chain against its own spec key and code identity, persists
// it, and serves the identical bytes from then on — no recompute.
func TestClusterPeerFetchVerified(t *testing.T) {
	registerDurabilityExperiments()
	lns, members := clusterListeners(t, []string{"a", "b"})
	ring, err := cluster.New(members, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec := specOwnedBy(t, ring, "b")
	key := specKey(specDefaults(spec))
	id := api.ArtifactID(key)

	// Node a computed the artifact while it ran solo (before the cluster
	// grew): payload spilled with its provenance record inside.
	dirA, dirB := t.TempDir(), t.TempDir()
	solo, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	solo.Close()

	sa, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dirA,
		Cluster: &ClusterConfig{NodeID: "a", Ring: ring}})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	startNode(t, sa, lns[0])
	sb, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dirB,
		Cluster: &ClusterConfig{NodeID: "b", Ring: ring}})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	startNode(t, sb, lns[1])

	res, err := sb.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("peer-fetched artifact not marked cached — the owner recomputed")
	}
	if res.Render != want.Render || !bytes.Equal(res.Result, want.Result) {
		t.Fatal("peer-fetched result differs from the originating node's run")
	}
	st := sb.Stats()
	if st.PeerFetches < 1 || st.PeerFetchVerified != 1 || st.PeerFetchRejected != 0 {
		t.Fatalf("peer fetch counters = %d/%d/%d, want >=1 fetches, 1 verified, 0 rejected",
			st.PeerFetches, st.PeerFetchVerified, st.PeerFetchRejected)
	}
	if st.SpilledArtifacts != 1 || st.ProvenanceRecords != 1 {
		t.Fatalf("fetched artifact not persisted: %d spilled, %d records",
			st.SpilledArtifacts, st.ProvenanceRecords)
	}

	// Both nodes now serve the SAME bytes under the SAME proof, and the
	// client-side chain check accepts them.
	ctx := context.Background()
	var payloads [][]byte
	for _, m := range members {
		cc, err := client.New(m.URL)
		if err != nil {
			t.Fatal(err)
		}
		art, proof, err := cc.VerifiedArtifact(ctx, id)
		if err != nil {
			t.Fatalf("verified fetch from %s: %v", m.ID, err)
		}
		if proof.SpecKey != key || proof.Code != codeIdentity() {
			t.Fatalf("proof leaves = %q / %q, want %q / %q", proof.SpecKey, proof.Code, key, codeIdentity())
		}
		payloads = append(payloads, art.Payload)
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatal("the two nodes serve different bytes for one content address")
	}
}

// TestClusterPeerFetchRejectsBadProofs drives the verifier against a
// malicious peer: a proof for another spec, a proof from other code, a
// tampered payload, and a self-consistent chain over bytes that are not
// an experiment result must all be rejected, with the owner falling
// back to a local compute that matches the honest reference.
func TestClusterPeerFetchRejectsBadProofs(t *testing.T) {
	registerDurabilityExperiments()
	spec := ExperimentSpec{Name: "svc-test-quick", Seed: 5}
	ref := newTestService(t, Config{Seed: 11, Workers: 2})
	want, err := ref.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := specKey(specDefaults(spec))
	code := codeIdentity()
	payload, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper inside a numeric literal so the bytes stay valid JSON (the
	// fake peer serves the payload as a json.RawMessage) but the result
	// hash no longer matches.
	tampered := append([]byte(nil), payload...)
	for i, ch := range tampered {
		if ch >= '1' && ch <= '8' {
			tampered[i] = ch + 1
			break
		}
	}
	if bytes.Equal(tampered, payload) {
		t.Fatal("no digit to tamper in the payload")
	}
	notAResult := []byte(`[1,2,3]`)

	cases := []struct {
		name    string
		proof   api.ArtifactProof
		payload []byte
	}{
		{"wrong spec key", api.BuildProof("experiment|other|1|1|0", code, payload), payload},
		{"wrong code", api.BuildProof(key, "registry:0000|tensor:ref", payload), payload},
		{"tampered payload", api.BuildProof(key, code, payload), tampered},
		{"unparseable payload", api.BuildProof(key, code, notAResult), notAResult},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET "+api.PathPrefix+"/artifacts/{id}", func(w http.ResponseWriter, r *http.Request) {
				_ = json.NewEncoder(w).Encode(api.Artifact{ID: r.PathValue("id"), Payload: tc.payload})
			})
			mux.HandleFunc("GET "+api.PathPrefix+"/artifacts/{id}/proof", func(w http.ResponseWriter, r *http.Request) {
				_ = json.NewEncoder(w).Encode(tc.proof)
			})
			evil := httptest.NewServer(mux)
			defer evil.Close()
			members := []cluster.Member{
				{ID: "a", URL: evil.URL},
				{ID: "b", URL: "http://127.0.0.1:9"}, // never dialed: b is self
			}
			// Scan ring seeds until b owns the key, so b computes (and
			// therefore peer-fetches) instead of redirecting.
			var ring *cluster.Ring
			for rs := int64(0); rs < 64; rs++ {
				r, err := cluster.New(members, 0, rs)
				if err != nil {
					t.Fatal(err)
				}
				if r.Owner(key).ID == "b" {
					ring = r
					break
				}
			}
			if ring == nil {
				t.Fatal("no ring seed in 0..63 places the key on b")
			}
			s := newTestService(t, Config{Seed: 11, Workers: 2,
				Cluster: &ClusterConfig{NodeID: "b", Ring: ring}})
			res, err := s.RunExperiment(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached {
				t.Error("rejected peer artifact served as cached")
			}
			if res.Render != want.Render || !bytes.Equal(res.Result, want.Result) {
				t.Fatal("local fallback differs from the honest reference")
			}
			st := s.Stats()
			if st.PeerFetches < 1 || st.PeerFetchVerified != 0 || st.PeerFetchRejected != 1 {
				t.Fatalf("counters = %d/%d/%d, want >=1 fetches, 0 verified, 1 rejected",
					st.PeerFetches, st.PeerFetchVerified, st.PeerFetchRejected)
			}
		})
	}
}

// TestClusterTamperedSpillNotServed pins the serving side: a node whose
// on-disk payload was corrupted refuses to serve the artifact at all
// (unknown_artifact, never bytes whose chain does not bind), and the
// owner degrades to a clean local recompute.
func TestClusterTamperedSpillNotServed(t *testing.T) {
	registerDurabilityExperiments()
	lns, members := clusterListeners(t, []string{"a", "b"})
	ring, err := cluster.New(members, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec := specOwnedBy(t, ring, "b")
	id := api.ArtifactID(specKey(specDefaults(spec)))

	dirA, dirB := t.TempDir(), t.TempDir()
	solo, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	solo.Close()

	// Flip one payload byte on disk.
	path := filepath.Join(dirA, "spill", id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sa, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dirA,
		Cluster: &ClusterConfig{NodeID: "a", Ring: ring}})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	startNode(t, sa, lns[0])

	ctx := context.Background()
	ca, err := client.New(members[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Artifact(ctx, id); api.CodeOf(err) != api.CodeUnknownArtifact {
		t.Fatalf("tampered artifact fetch = %v, want typed unknown_artifact", err)
	}

	sb, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dirB,
		Cluster: &ClusterConfig{NodeID: "b", Ring: ring}})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	res, err := sb.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("owner served a result it could not have fetched")
	}
	if res.Render != want.Render || !bytes.Equal(res.Result, want.Result) {
		t.Fatal("recomputed result differs from the uncorrupted run")
	}
	st := sb.Stats()
	if st.PeerFetches < 1 || st.PeerFetchVerified != 0 {
		t.Fatalf("counters = %d fetches / %d verified, want >=1 / 0", st.PeerFetches, st.PeerFetchVerified)
	}
}

// TestArtifactEndpoints covers the artifact surface on one node: every
// spilled artifact round-trips through GET /v2/artifacts/{id} (+proof)
// and passes the client-side chain check; malformed and unknown
// addresses answer with their typed codes.
func TestArtifactEndpoints(t *testing.T) {
	registerDurabilityExperiments()
	s, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	specs := []ExperimentSpec{
		{Name: "svc-test-quick", Seed: 1},
		{Name: "svc-test-quick", Seed: 2},
		{Name: "ablate-trace", Seed: 29, Scale: 0.01},
	}
	for _, spec := range specs {
		if _, err := s.RunExperiment(spec); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, spec := range specs {
		key := specKey(specDefaults(spec))
		art, proof, err := c.VerifiedArtifact(ctx, api.ArtifactID(key))
		if err != nil {
			t.Fatalf("spilled artifact %s fails the verified fetch: %v", key, err)
		}
		if proof.SpecKey != key || proof.Code != codeIdentity() || art.ID != api.ArtifactID(key) {
			t.Fatalf("proof = %+v for key %q", proof, key)
		}
	}
	if _, err := c.Artifact(ctx, "not-a-content-address"); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("malformed id = %v, want typed bad_request", err)
	}
	if _, err := c.Artifact(ctx, api.ArtifactID("experiment|never-ran")); api.CodeOf(err) != api.CodeUnknownArtifact {
		t.Fatalf("unknown id = %v, want typed unknown_artifact", err)
	}
	// A single-node server reports the cluster disabled.
	info, err := c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Enabled || len(info.Members) != 0 {
		t.Fatalf("single-node cluster info = %+v", info)
	}
}

// TestMetricsEndpoint pins the scrape surface: Prometheus text format,
// fixed series set, deterministic byte-identical output for an
// unchanged server.
func TestMetricsEndpoint(t *testing.T) {
	c, ts, v := httpFixture(t)
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "mnist-toy", Mode: api.ModeRawOutput, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, v.test.X.Row(0)); err != nil {
		t.Fatal(err)
	}

	scrape := func() (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + api.PathPrefix + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d", resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	body, ctype := scrape()
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE xbarsec_sessions gauge",
		"\nxbarsec_sessions 1\n",
		"# TYPE xbarsec_artifact_cache_hits_total counter",
		"# TYPE xbarsec_artifact_cache_hit_ratio gauge",
		"# TYPE xbarsec_victim_store_hits_total counter",
		"# TYPE xbarsec_victim_store_bytes gauge",
		"# TYPE xbarsec_spill_artifacts gauge",
		"# TYPE xbarsec_provenance_records gauge",
		"# TYPE xbarsec_batched_queries_total counter",
		"# TYPE xbarsec_cluster_redirects_total counter",
		"\nxbarsec_cluster_redirects_total 0\n",
		"\nxbarsec_cluster_peer_fetches_total 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
	// Deterministic: an idle server scrapes byte-identically.
	if again, _ := scrape(); again != body {
		t.Fatal("two idle scrapes differ")
	}
}

// TestMetricsCoverStats keeps /v2/metrics mechanically complete with
// respect to /v2/stats: every numeric top-level api.Stats field has a
// series, and every series that reports a field names an integer one
// (the kinds the handler reads). Per-victim fields would need labels
// and are not exported.
func TestMetricsCoverStats(t *testing.T) {
	typ := reflect.TypeOf(api.Stats{})
	reported := map[string]bool{}
	names := map[string]bool{}
	for _, m := range metricsTable {
		if names[m.name] {
			t.Errorf("series %s listed twice", m.name)
		}
		names[m.name] = true
		if m.derive != nil {
			continue
		}
		f, ok := typ.FieldByName(m.stat)
		if !ok || (f.Type.Kind() != reflect.Int && f.Type.Kind() != reflect.Int64) {
			t.Errorf("series %s reports %q, not an integer api.Stats field", m.name, m.stat)
		}
		reported[m.stat] = true
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			if !reported[f.Name] {
				t.Errorf("api.Stats.%s (%s) has no /v2/metrics series", f.Name, f.Tag.Get("json"))
			}
		}
	}
}

// TestClusterSilentPeerBounded pins the peer-fetch wait: a peer that
// accepts connections and never answers costs a cold miss at most
// peerAnswerTimeout, not the whole fetch timeout, and counts as one
// unverified fetch.
func TestClusterSilentPeerBounded(t *testing.T) {
	registerDurabilityExperiments()
	// Node b's listener is reserved but never served: the kernel accepts
	// the connection and nothing answers.
	_, members := clusterListeners(t, []string{"a", "b"})
	ring, err := cluster.New(members, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec := specOwnedBy(t, ring, "a")
	s := New(Config{Seed: 11, Workers: 2, Cluster: &ClusterConfig{NodeID: "a", Ring: ring}})
	defer s.Close()

	start := time.Now()
	res, err := s.RunExperiment(spec)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("cold spec marked cached")
	}
	if limit := peerAnswerTimeout + 5*time.Second; elapsed > limit {
		t.Fatalf("cold miss beside a silent peer took %v, want at most %v", elapsed, limit)
	}
	st := s.Stats()
	if st.PeerFetches != 1 || st.PeerFetchVerified != 0 || st.PeerFetchRejected != 0 {
		t.Fatalf("peer fetch counters = %d/%d/%d, want 1 fetch, 0 verified, 0 rejected",
			st.PeerFetches, st.PeerFetchVerified, st.PeerFetchRejected)
	}
}

// TestChaosClusterKillOwnerMidJob is the cluster chaos variant: the
// node that OWNS a job crashes mid-run; after a restart on the same
// state dir, journal replay must finish the job locally (replay never
// consults the ring) and the artifact it lands must carry a provenance
// chain that verifies — locally and over the wire.
func TestChaosClusterKillOwnerMidJob(t *testing.T) {
	registerClusterExperiments()
	lns, members := clusterListeners(t, []string{"a", "b"})
	ring, err := cluster.New(members, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	// A spec node a owns, of the gated blocking experiment.
	var spec ExperimentSpec
	found := false
	for seed := int64(1); seed <= 1000; seed++ {
		cand := ExperimentSpec{Name: "svc-test-cluster-block", Seed: seed}
		if ring.Owner(specKey(specDefaults(cand))).ID == "a" {
			spec, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no seed in 1..1000 places the blocking spec on node a")
	}

	dir := t.TempDir()
	cc := &ClusterConfig{NodeID: "a", Ring: ring}
	fsys := faultinject.NewFS(wal.OSFS{}, faultinject.FSConfig{Seed: 1})
	s1, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true, FS: fsys, Cluster: cc})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s1.LaunchExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(job.ID(), "@a") {
		t.Fatalf("job id = %q, want the @a suffix", job.ID())
	}
	// The owner dies mid-job: the launch record is journaled, nothing
	// else reaches disk.
	fsys.Crash()
	close(clusterBlockGate)
	<-job.Done()
	s1.Close()

	s2, rec, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true, Cluster: cc})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.ReplayedJobs != 1 || rec.Relaunched != 1 {
		t.Fatalf("recovery = %+v, want the crashed job relaunched", rec)
	}
	job2, err := s2.ExperimentJobByID(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job2.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("replayed job never finished")
	}
	if _, _, jerr := job2.Snapshot(); jerr != nil {
		t.Fatalf("replayed job failed: %v", jerr)
	}

	// The replayed artifact's chain verifies: in process...
	key := specKey(specDefaults(spec))
	id := api.ArtifactID(key)
	payload, prec, err := s2.artifactAt(id)
	if err != nil {
		t.Fatalf("replayed artifact not servable: %v", err)
	}
	if err := memo.CheckRecord(&prec, id, codeIdentity(), payload); err != nil {
		t.Fatalf("replayed artifact's chain rejected: %v", err)
	}
	// ...and over the wire, through the client-side verifier.
	startNode(t, s2, lns[0])
	c, err := client.New(members[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.VerifiedArtifact(context.Background(), id); err != nil {
		t.Fatalf("wire-verified fetch of the replayed artifact: %v", err)
	}
}
