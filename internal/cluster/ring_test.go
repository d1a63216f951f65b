package cluster

import (
	"fmt"
	"strings"
	"testing"
)

func testMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{ID: fmt.Sprintf("n%d", i), URL: fmt.Sprintf("http://10.0.0.%d:8080", i+1)}
	}
	return ms
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("experiment|fig%d|%d|0.01|1", i%7, i)
	}
	return keys
}

// Same seed + members => same placement, regardless of the order the
// member list was written in. This is the clustering contract: nodes
// never exchange placement state, they each derive it.
func TestRingDeterministic(t *testing.T) {
	ms := testMembers(5)
	r1, err := New(ms, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed member order, fresh construction.
	rev := make([]Member, len(ms))
	for i, m := range ms {
		rev[len(ms)-1-i] = m
	}
	r2, err := New(rev, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hash() != r2.Hash() {
		t.Fatalf("membership hash differs across construction order: %s vs %s", r1.Hash(), r2.Hash())
	}
	for _, key := range testKeys(500) {
		if a, b := r1.Owner(key), r2.Owner(key); a != b {
			t.Fatalf("owner(%q) = %v vs %v across construction order", key, a, b)
		}
	}
}

// Different seeds and different membership produce different ring
// hashes — the version nodes compare to catch misconfiguration.
func TestRingHashSensitivity(t *testing.T) {
	base, _ := New(testMembers(3), 64, 11)
	otherSeed, _ := New(testMembers(3), 64, 12)
	otherVN, _ := New(testMembers(3), 32, 11)
	otherMembers, _ := New(testMembers(4), 64, 11)
	for name, r := range map[string]*Ring{
		"seed": otherSeed, "vnodes": otherVN, "members": otherMembers,
	} {
		if r.Hash() == base.Hash() {
			t.Errorf("ring hash insensitive to %s change", name)
		}
	}
	if len(base.Hash()) != 64 {
		t.Fatalf("hash = %q, want 64 hex chars", base.Hash())
	}
}

// Placement must be usefully balanced: with 64 vnodes per member no
// node should own a wildly disproportionate share of keys.
func TestRingDistribution(t *testing.T) {
	r, err := New(testMembers(4), 0, 7) // 0 => DefaultVNodes
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := testKeys(4000)
	for _, key := range keys {
		counts[r.Owner(key).ID]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 members own keys: %v", len(counts), counts)
	}
	want := len(keys) / 4
	for id, n := range counts {
		if n < want/3 || n > want*3 {
			t.Errorf("member %s owns %d of %d keys (ideal %d): placement badly skewed", id, n, len(keys), want)
		}
	}
}

// Adding a member moves only keys that land on the new member;
// removing one moves only the keys it owned. Everything else stays
// put — the property that makes peer artifact caches survive
// membership changes.
func TestRingMinimalMovement(t *testing.T) {
	ms := testMembers(5)
	full, err := New(ms, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := New(ms[:4], 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(3000)
	moved := 0
	for _, key := range keys {
		before, after := smaller.Owner(key), full.Owner(key)
		if before == after {
			continue
		}
		moved++
		// Growth: a key may only move TO the added member.
		if after.ID != "n4" {
			t.Fatalf("adding n4 moved %q from %s to %s", key, before.ID, after.ID)
		}
	}
	// And shrink is the mirror image: keys owned by n4 fall back, all
	// others keep their owner.
	for _, key := range keys {
		if full.Owner(key).ID != "n4" && smaller.Owner(key) != full.Owner(key) {
			t.Fatalf("removing n4 moved %q, which n4 never owned", key)
		}
	}
	// ~1/5 of keys should move; far more means placement isn't
	// consistent hashing, zero means the new member owns nothing.
	if moved == 0 || moved > len(keys)/2 {
		t.Fatalf("%d of %d keys moved on member add, want roughly %d", moved, len(keys), len(keys)/5)
	}
}

func TestRingLookup(t *testing.T) {
	r, err := New(testMembers(3), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.Lookup("n1")
	if !ok || m.URL != "http://10.0.0.2:8080" {
		t.Fatalf("Lookup(n1) = %v, %v", m, ok)
	}
	if _, ok := r.Lookup("ghost"); ok {
		t.Fatal("Lookup(ghost) succeeded")
	}
	if r.Len() != 3 || r.VNodes() != 8 || r.Seed() != 1 {
		t.Fatalf("ring shape = %d/%d/%d", r.Len(), r.VNodes(), r.Seed())
	}
}

func TestRingValidation(t *testing.T) {
	cases := []struct {
		name    string
		members []Member
	}{
		{"empty", nil},
		{"dup id", []Member{{ID: "a", URL: "http://x"}, {ID: "a", URL: "http://y"}}},
		{"no id", []Member{{URL: "http://x"}}},
		{"no url", []Member{{ID: "a"}}},
		{"bad scheme", []Member{{ID: "a", URL: "ftp://x"}}},
		{"reserved char", []Member{{ID: "a=b", URL: "http://x"}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.members, 4, 0); err == nil {
			t.Errorf("%s: New accepted invalid members %+v", tc.name, tc.members)
		}
	}
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("a=http://h1:1, b=http://h2:2/,")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] != (Member{ID: "a", URL: "http://h1:1"}) || ms[1] != (Member{ID: "b", URL: "http://h2:2"}) {
		t.Fatalf("parsed = %+v", ms)
	}
	for _, bad := range []string{"", "a", "=http://x", "a=", "a=/", ","} {
		if _, err := ParseMembers(bad); err == nil {
			t.Errorf("ParseMembers(%q) succeeded", bad)
		}
	}
	if _, err := ParseMembers(strings.Repeat(",", 3)); err == nil {
		t.Error("ParseMembers of only separators succeeded")
	}
}

// FuzzParseMembers drives the -peers parser, the one input that sets
// cluster membership, with arbitrary strings. It must never panic;
// every member it returns must carry a non-empty id and a non-empty URL
// without a trailing slash; an accepted list must build a ring or fail
// New with an error, never a panic; and a built ring's Lookup must find
// every member. The committed corpus lives in
// testdata/fuzz/FuzzParseMembers.
func FuzzParseMembers(f *testing.F) {
	f.Add("a=http://h1:1,b=http://h2:2/")
	f.Fuzz(func(t *testing.T, s string) {
		ms, err := ParseMembers(s)
		if err != nil {
			return
		}
		for _, m := range ms {
			if m.ID == "" || m.URL == "" || strings.HasSuffix(m.URL, "/") {
				t.Fatalf("ParseMembers(%q) accepted member %+v", s, m)
			}
		}
		r, err := New(ms, 4, 1)
		if err != nil {
			return
		}
		for _, m := range ms {
			if got, ok := r.Lookup(m.ID); !ok || got != m {
				t.Fatalf("ring from %q: Lookup(%q) = %+v, %v; want %+v", s, m.ID, got, ok, m)
			}
		}
	})
}
