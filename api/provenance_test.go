package api

import (
	"strings"
	"testing"
)

// TestArtifactProofVerify walks the chain link by link: the proof
// BuildProof mints verifies, and each forged or mismatched link fails
// at that link.
func TestArtifactProofVerify(t *testing.T) {
	const key = "experiment|fig4|7|0.01|1|tb:fast"
	const code = "goldens:deadbeef|tensor:fast"
	payload := []byte(`{"name":"fig4","seed":7,"render":"ok"}`)
	built := BuildProof(key, code, payload)
	if built.ID != ArtifactID(key) || len(built.Root) != 64 {
		t.Fatalf("chain shape = %+v", built)
	}
	// The four hashes are pairwise distinct — domain separation works.
	seen := map[string]bool{built.SpecHash: true}
	for _, h := range []string{built.CodeHash, built.ResultHash, built.Root} {
		if seen[h] {
			t.Fatalf("hash collision across chain links: %+v", built)
		}
		seen[h] = true
	}

	tampered := append([]byte(nil), payload...)
	tampered[len(tampered)-2] ^= 0x01
	for _, tc := range []struct {
		name    string
		forge   func(p *ArtifactProof)
		payload []byte
		link    string // "" = accepted
	}{
		{"own chain", func(*ArtifactProof) {}, payload, ""},
		{"tampered payload", func(*ArtifactProof) {}, tampered, "result hash"},
		{"forged spec hash", func(p *ArtifactProof) { p.SpecHash = strings.Repeat("ab", 32) }, payload, "spec hash"},
		{"re-keyed preimage", func(p *ArtifactProof) { p.SpecKey = "experiment|fig5|7|0.01|1" }, payload, "artifact id"},
		{"forged code hash", func(p *ArtifactProof) { p.CodeHash = strings.Repeat("cd", 32) }, payload, "code hash"},
		{"forged root", func(p *ArtifactProof) { p.Root = strings.Repeat("00", 32) }, payload, "root"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := built
			tc.forge(&p)
			err := p.Verify(tc.payload)
			switch {
			case tc.link == "" && err != nil:
				t.Fatalf("fresh chain rejected: %v", err)
			case tc.link != "" && err == nil:
				t.Fatal("forged chain accepted")
			case tc.link != "" && !strings.Contains(err.Error(), tc.link):
				t.Fatalf("failed at the wrong link (want %q): %v", tc.link, err)
			}
		})
	}
}
