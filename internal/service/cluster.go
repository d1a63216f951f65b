package service

// The cluster layer: ring-aware admission plus peer artifact exchange.
//
// A clustered service is one node of a static membership (every node
// starts with the same `-peers id=url` list). The consistent-hash ring
// (internal/cluster) assigns every victim and every experiment spec to
// exactly one owner; a request for a key this node does not own is
// refused with a typed RedirectError — node_redirect on the wire, HTTP
// 421 — carrying the owner's URL, and the SDK re-issues it there. The
// owner is also the cross-ring singleflight: all clients' identical
// specs land on one node, whose in-process cache.Do collapses them
// onto one computation.
//
// Ownership governs admission, not ability: every node registers every
// victim (trained deterministically from the shared seed, so the
// victims are bit-identical), and journal replay always runs locally —
// a journaled job is this node's to finish regardless of how the
// membership looked when it was accepted. That keeps recovery correct
// across membership changes: the journal is node-local truth.
//
// Before computing a missing artifact, a node asks its peers for it by
// content address and accepts the bytes only if they pass the same
// check as its own spill files (memo.CheckRecord): the Merkle
// provenance chain binds the payload, and its address and code identity
// are the ones this node would itself have used — so a node never
// serves peer bytes it could not have produced.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"xbarsec/api"
	"xbarsec/internal/cluster"
	"xbarsec/internal/memo"
)

// ClusterConfig makes a service one node of a static cluster.
type ClusterConfig struct {
	// NodeID names this node within Ring's membership.
	NodeID string
	// Ring is the shared placement ring (cluster.New) — built from the
	// same members, vnodes and seed on every node, so all nodes agree on
	// every key's owner without coordination.
	Ring *cluster.Ring
}

// peerFetchTimeout bounds one artifact/proof fetch against a peer; a
// slow or dead peer degrades to local recompute, never a hung job.
const peerFetchTimeout = 30 * time.Second

// peerAnswerTimeout bounds how long a peer may take to accept the
// connection and to start its answer. A peer that accepts and never
// answers (a stopped process, a full accept queue) then costs a cold
// miss this much, not the whole peerFetchTimeout, while a large body
// that has started arriving still gets the full fetch time.
const peerAnswerTimeout = 5 * time.Second

// maxPeerArtifactBytes bounds what a peer response may make this node
// buffer — the same cap the HTTP layer puts on request bodies.
const maxPeerArtifactBytes = maxRequestBody

// clusterNode is the service's cluster state.
type clusterNode struct {
	self  cluster.Member
	ring  *cluster.Ring
	peers []cluster.Member // ring members minus self, sorted by ID
	hc    *http.Client

	redirects    atomic.Int64
	peerFetches  atomic.Int64
	peerVerified atomic.Int64
	peerRejected atomic.Int64
}

// initCluster wires the cluster state into a freshly built service.
// An id outside the ring is a construction bug (cmd/xbarserve and the
// tests validate membership before building the Config), so it panics
// like any other programmer error rather than limping along as a node
// that owns nothing.
func (s *Service) initCluster(cc *ClusterConfig) {
	if cc == nil {
		return
	}
	self, ok := cc.Ring.Lookup(cc.NodeID)
	if !ok {
		panic(fmt.Sprintf("service: cluster node id %q is not in the ring membership", cc.NodeID))
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DialContext = (&net.Dialer{Timeout: peerAnswerTimeout}).DialContext
	tr.ResponseHeaderTimeout = peerAnswerTimeout
	c := &clusterNode{
		self: self,
		ring: cc.Ring,
		hc:   &http.Client{Timeout: peerFetchTimeout, Transport: tr},
	}
	for _, m := range cc.Ring.Members() {
		if m.ID != self.ID {
			c.peers = append(c.peers, m)
		}
	}
	s.cluster = c
	// Cluster job ids carry their owning node ("job-3@a") so a poll
	// that lands on the wrong node can be redirected by parsing the id.
	s.jobs.suffix = "@" + self.ID
}

// RedirectError reports that another node owns the requested key. The
// HTTP layer maps it to the protocol's node_redirect code (421) with
// Error.RedirectTo set; it is never retried in place.
type RedirectError struct {
	// Key is the routing key that was refused.
	Key string
	// NodeID and URL identify the owner.
	NodeID string
	URL    string
}

// Error renders the redirect.
func (e *RedirectError) Error() string {
	return fmt.Sprintf("service: key %q is owned by node %s (%s)", e.Key, e.NodeID, e.URL)
}

// victimKey is the routing key of everything victim-scoped: sessions,
// campaigns and extractions route by victim, so one victim's whole
// interactive and sync workload lands on one owner.
func victimKey(name string) string { return "victim|" + name }

// routeKey admits a key: nil when this node owns it (or the service is
// not clustered), a RedirectError to the owner otherwise.
func (s *Service) routeKey(key string) error {
	c := s.cluster
	if c == nil {
		return nil
	}
	owner := c.ring.Owner(key)
	if owner.ID == c.self.ID {
		return nil
	}
	c.redirects.Add(1)
	return &RedirectError{Key: key, NodeID: owner.ID, URL: owner.URL}
}

// routeVictim admits a victim-scoped request.
func (s *Service) routeVictim(name string) error { return s.routeKey(victimKey(name)) }

// peerFetchExperiment tries to serve a missing experiment artifact
// from a peer instead of recomputing: fetch payload + provenance chain
// by content address, check them against the address and code identity
// this node would have used, and spill the checked bytes locally (with
// a freshly minted record) so the artifact is served and re-proved from
// here on. Returns nil — degrade to local compute — on any failure:
// peers down, artifact unknown, or the check rejected.
func (s *Service) peerFetchExperiment(key string) *ExperimentResult {
	c := s.cluster
	if c == nil || len(c.peers) == 0 {
		return nil
	}
	id := api.ArtifactID(key)
	code := codeIdentity()
	for _, m := range c.peers {
		c.peerFetches.Add(1)
		art, proof, err := c.fetchArtifact(m.URL, id)
		if err != nil {
			// Unreachable peer or no artifact there — not an integrity
			// failure, just a miss.
			continue
		}
		if err := memo.CheckRecord(proof, id, code, art.Payload); err != nil {
			c.peerRejected.Add(1)
			continue
		}
		var res ExperimentResult
		if json.Unmarshal(art.Payload, &res) != nil {
			c.peerRejected.Add(1)
			continue
		}
		c.peerVerified.Add(1)
		// The checked payload spills verbatim — byte-identical on every
		// node that holds it — with a freshly derived record.
		if s.spill != nil {
			_ = s.spill.Put(key, code, art.Payload)
		}
		return &res
	}
	return nil
}

// fetchArtifact retrieves one artifact and its proof from a peer.
func (c *clusterNode) fetchArtifact(base, id string) (*api.Artifact, *api.ArtifactProof, error) {
	var art api.Artifact
	if err := c.getJSON(base+api.PathPrefix+"/artifacts/"+id, &art); err != nil {
		return nil, nil, err
	}
	var proof api.ArtifactProof
	if err := c.getJSON(base+api.PathPrefix+"/artifacts/"+id+"/proof", &proof); err != nil {
		return nil, nil, err
	}
	return &art, &proof, nil
}

func (c *clusterNode) getJSON(url string, v any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("service: peer %s returned %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxPeerArtifactBytes)).Decode(v)
}

// ErrArtifactUnknown indicates no provable artifact at the requested
// content address on this node — absent, or failing the spill store's
// check. The wire code is unknown_artifact.
var ErrArtifactUnknown = errors.New("service: unknown artifact")

// Artifact serves one spilled artifact by content address — only after
// its record passes the spill store's check, so a corrupt record or
// payload, or one from other code, is a 404, never wrong bytes with a
// proof that does not bind.
func (s *Service) Artifact(id string) (*api.Artifact, error) {
	payload, _, err := s.artifactAt(id)
	if err != nil {
		return nil, err
	}
	return &api.Artifact{ID: id, Payload: json.RawMessage(payload)}, nil
}

// ArtifactProof serves one artifact's Merkle provenance chain.
func (s *Service) ArtifactProof(id string) (*api.ArtifactProof, error) {
	_, rec, err := s.artifactAt(id)
	if err != nil {
		return nil, err
	}
	return &rec, nil
}

// artifactAt loads a spilled artifact and its record by content
// address, through the spill store's check against this node's code
// identity.
func (s *Service) artifactAt(id string) ([]byte, api.ArtifactProof, error) {
	if !memo.ValidAddr(id) {
		return nil, api.ArtifactProof{}, badRequestf("artifact id %q is not a content address", id)
	}
	if s.spill == nil {
		return nil, api.ArtifactProof{}, fmt.Errorf("service: artifact %s (no artifact store): %w", id, ErrArtifactUnknown)
	}
	payload, rec, ok, err := s.spill.GetAddr(id, codeIdentity())
	if err != nil || !ok {
		return nil, rec, fmt.Errorf("service: artifact %s: %w", id, ErrArtifactUnknown)
	}
	return payload, rec, nil
}

// ClusterInfo snapshots the node's membership (the GET /v2/cluster
// body). A non-clustered service reports Enabled false.
func (s *Service) ClusterInfo() api.ClusterInfo {
	c := s.cluster
	if c == nil {
		return api.ClusterInfo{}
	}
	info := api.ClusterInfo{
		Enabled:  true,
		VNodes:   c.ring.VNodes(),
		RingSeed: c.ring.Seed(),
		RingHash: c.ring.Hash(),
	}
	for _, m := range c.ring.Members() {
		info.Members = append(info.Members, api.NodeInfo{ID: m.ID, URL: m.URL, Self: m.ID == c.self.ID})
	}
	return info
}

// jobRedirect resolves an unknown job id's owning node from its
// "@node" suffix: a poll that lands on the wrong node redirects
// instead of 404ing, which is what lets clients follow a launch
// redirect with plain per-call routing.
func (s *Service) jobRedirect(id string) error {
	c := s.cluster
	if c == nil {
		return nil
	}
	if _, node, ok := strings.Cut(id, "@"); ok && node != c.self.ID {
		if m, found := c.ring.Lookup(node); found {
			c.redirects.Add(1)
			return &RedirectError{Key: id, NodeID: m.ID, URL: m.URL}
		}
	}
	return nil
}

func (s *Service) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ClusterInfo())
}

func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	art, err := s.Artifact(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, art)
}

func (s *Service) handleArtifactProof(w http.ResponseWriter, r *http.Request) {
	proof, err := s.ArtifactProof(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, proof)
}
