// Package cluster implements the deterministic consistent-hash ring
// that assigns victims and experiment specs to xbarserve nodes.
//
// Membership is static and explicit: every node is started with the
// same `-peers id=url,...` list (no gossip, no discovery), and the
// ring is a pure function of (members, vnodes, seed). Two nodes built
// from the same inputs agree on the owner of every key without
// talking to each other; Ring.Hash digests the inputs so nodes and
// clients can detect a membership mismatch. Placement uses sha256 —
// no ambient randomness — so ownership is reproducible across
// processes, platforms and restarts.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// DefaultVNodes is the virtual-node count per member used when a Ring
// is built with vnodes <= 0. 64 points per member keeps the ownership
// split within a few percent of even for small static clusters while
// the point table stays tiny.
const DefaultVNodes = 64

// Member is one node of a static cluster: a stable identifier (the
// `-node-id` flag) and the base URL peers and redirected clients reach
// it at.
type Member struct {
	ID  string
	URL string
}

// Ring is an immutable consistent-hash ring over a static member set.
// All methods are safe for concurrent use.
type Ring struct {
	members []Member // sorted by ID
	vnodes  int
	seed    int64
	points  []point // sorted by hash
	hash    string
}

// point is one virtual node: a placement hash owned by members[member].
type point struct {
	h      uint64
	member int
}

// New builds the ring. Members must be non-empty with unique,
// non-empty IDs and URLs; vnodes <= 0 selects DefaultVNodes. The seed
// participates in every placement hash, so clusters with different
// seeds place keys independently — nodes of one cluster must share it
// (xbarserve reuses the service seed, which peers must already share
// for bit-identical victims).
func New(members []Member, vnodes int, seed int64) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	ms := make([]Member, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("cluster: member %+v needs both id and url", m)
		}
		if strings.ContainsAny(m.ID, "=,|\n") {
			return nil, fmt.Errorf("cluster: member id %q contains a reserved character", m.ID)
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("cluster: duplicate member id %q", m.ID)
		}
		seen[m.ID] = true
		u, err := url.Parse(m.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: member %q url %q is not an http(s) base URL", m.ID, m.URL)
		}
	}
	r := &Ring{members: ms, vnodes: vnodes, seed: seed}
	r.points = make([]point, 0, len(ms)*vnodes)
	for i, m := range ms {
		for rep := 0; rep < vnodes; rep++ {
			h := hash64(fmt.Sprintf("vnode|%d|%s|%d", seed, m.ID, rep))
			r.points = append(r.points, point{h: h, member: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.h != b.h {
			return a.h < b.h
		}
		// A 64-bit collision between two members' vnodes is astronomically
		// unlikely, but ownership must not depend on sort stability.
		return ms[a.member].ID < ms[b.member].ID
	})
	sum := sha256.New()
	fmt.Fprintf(sum, "ring|%d|%d\n", seed, vnodes)
	for _, m := range ms {
		fmt.Fprintf(sum, "%s=%s\n", m.ID, m.URL)
	}
	r.hash = fmt.Sprintf("%x", sum.Sum(nil))
	return r, nil
}

// Owner returns the member that owns key: the first vnode point at or
// clockwise after the key's placement hash.
func (r *Ring) Owner(key string) Member {
	h := hash64(fmt.Sprintf("key|%d|%s", r.seed, key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}

// Lookup returns the member with the given id.
func (r *Ring) Lookup(id string) (Member, bool) {
	i := sort.Search(len(r.members), func(i int) bool { return r.members[i].ID >= id })
	if i < len(r.members) && r.members[i].ID == id {
		return r.members[i], true
	}
	return Member{}, false
}

// Members returns the membership sorted by ID (a copy).
func (r *Ring) Members() []Member {
	ms := make([]Member, len(r.members))
	copy(ms, r.members)
	return ms
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Seed returns the placement seed.
func (r *Ring) Seed() int64 { return r.seed }

// Hash is the membership version: a sha256 digest of (seed, vnodes,
// sorted id=url list). Two rings agree on every key's owner iff their
// hashes are equal; nodes expose it in /v2/stats and /v2/cluster so a
// misconfigured peer list is visible instead of silently splitting
// ownership.
func (r *Ring) Hash() string { return r.hash }

// ParseMembers parses the `-peers` flag format: a comma-separated
// id=url list, e.g. "a=http://10.0.0.1:8080,b=http://10.0.0.2:8080".
func ParseMembers(s string) ([]Member, error) {
	var ms []Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		u = strings.TrimRight(u, "/")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("cluster: peer %q is not id=url", part)
		}
		ms = append(ms, Member{ID: id, URL: u})
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return ms, nil
}

// hash64 derives a placement hash from the first 8 bytes of sha256.
// sha256 rather than a faster non-cryptographic hash keeps placement
// identical on every platform and trivially collision-free in
// practice; ring construction is startup-only and lookups hash one
// short key.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
