package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// The artifact provenance chain (additive in v2.2).
//
// Every artifact a server spills is a pure function of its spec (the
// server-side cache key) and the code that computed it. The code
// identity is "goldens:<digest>|tensor:<backend>": a sha256 over the
// server's committed golden experiment renders, which its build keeps
// in step with the numerics, plus the tensor backend it computes with.
// The server records that lineage as a three-link Merkle chain of
// domain-separated sha256 hashes:
//
//	spec_hash   = H("xbarsec/spec"   || spec_key)
//	code_hash   = H("xbarsec/code"   || code)
//	result_hash = H("xbarsec/result" || payload)
//	root        = H("xbarsec/artifact" || spec_hash || code_hash || result_hash)
//
// (|| joins with "\n"; hashes enter the root as lowercase hex.) The
// proof carries the leaf preimages (spec_key, code) together with the
// hashes, so any holder of the payload re-derives every link with
// nothing but sha256 — no server trust, no recomputation of the
// experiment. The server stores each proof in the same file as its
// payload and serves an artifact — from disk, over GET
// /v2/artifacts/{id} + /proof, or to a peer — only when the chain
// verifies for the requested id and its own code identity; a client
// does the same with ArtifactProof.Verify.

// Hash-domain prefixes of the provenance chain. Domain separation
// keeps a spec key that happens to equal a payload from colliding
// across links.
const (
	domainSpec     = "xbarsec/spec"
	domainCode     = "xbarsec/code"
	domainResult   = "xbarsec/result"
	domainArtifact = "xbarsec/artifact"
)

// Artifact is the GET /v2/artifacts/{id} body: the raw spilled payload
// at a content address. The payload is the artifact's canonical JSON
// encoding — for experiment artifacts, an ExperimentResult.
type Artifact struct {
	// ID is the content address: hex(sha256(spec_key)), the name the
	// artifact is spilled under.
	ID string `json:"id"`
	// Payload is the artifact's exact spilled bytes.
	Payload json.RawMessage `json:"payload"`
}

// ArtifactProof is the GET /v2/artifacts/{id}/proof body: the Merkle
// provenance chain of one artifact, carrying both the leaf preimages
// and the derived hashes.
type ArtifactProof struct {
	// ID is the artifact's content address, hex(sha256(SpecKey)).
	ID string `json:"id"`
	// SpecKey is the server-side cache key the artifact was computed
	// for — the spec-link preimage.
	SpecKey string `json:"spec_key"`
	// Code identifies the code that computed the artifact (golden
	// renders digest + tensor backend) — the code-link preimage.
	Code string `json:"code"`
	// SpecHash, CodeHash and ResultHash are the chain links; Root binds
	// them. All lowercase hex sha256.
	SpecHash   string `json:"spec_hash"`
	CodeHash   string `json:"code_hash"`
	ResultHash string `json:"result_hash"`
	Root       string `json:"root"`
}

// ArtifactID returns an artifact's content address: hex(sha256 of the
// raw spec key), matching the server's spill-store naming.
func ArtifactID(specKey string) string {
	sum := sha256.Sum256([]byte(specKey))
	return hex.EncodeToString(sum[:])
}

// hashDomain hashes data under a domain prefix and returns lowercase
// hex.
func hashDomain(domain string, data []byte) string {
	h := sha256.New()
	h.Write([]byte(domain))
	h.Write([]byte{'\n'})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// BuildProof derives the full provenance chain for an artifact from
// its leaf preimages and payload. Servers call it when spilling; a
// verifier never needs it directly (Verify re-derives each link).
func BuildProof(specKey, code string, payload []byte) ArtifactProof {
	p := ArtifactProof{
		ID:         ArtifactID(specKey),
		SpecKey:    specKey,
		Code:       code,
		SpecHash:   hashDomain(domainSpec, []byte(specKey)),
		CodeHash:   hashDomain(domainCode, []byte(code)),
		ResultHash: hashDomain(domainResult, payload),
	}
	p.Root = hashDomain(domainArtifact, []byte(p.SpecHash+p.CodeHash+p.ResultHash))
	return p
}

// Verify walks the chain: it re-derives every link from the proof's
// preimages and the payload, and fails on the first mismatch. A nil
// error means the payload is exactly the bytes this spec key and code
// identity produced — byte-level tampering, a proof transplanted from
// another spec, and a result computed by different code all fail.
func (p *ArtifactProof) Verify(payload []byte) error {
	if got := ArtifactID(p.SpecKey); got != p.ID {
		return fmt.Errorf("provenance: artifact id %s is not the address of spec key %q (want %s)", p.ID, p.SpecKey, got)
	}
	if got := hashDomain(domainSpec, []byte(p.SpecKey)); got != p.SpecHash {
		return fmt.Errorf("provenance: spec hash mismatch: chain says %s, spec key derives %s", p.SpecHash, got)
	}
	if got := hashDomain(domainCode, []byte(p.Code)); got != p.CodeHash {
		return fmt.Errorf("provenance: code hash mismatch: chain says %s, code identity derives %s", p.CodeHash, got)
	}
	if got := hashDomain(domainResult, payload); got != p.ResultHash {
		return fmt.Errorf("provenance: result hash mismatch: payload does not match the recorded artifact")
	}
	if got := hashDomain(domainArtifact, []byte(p.SpecHash+p.CodeHash+p.ResultHash)); got != p.Root {
		return fmt.Errorf("provenance: root mismatch: chain links do not bind to root %s", p.Root)
	}
	return nil
}
