package experiment

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io/fs"
	"strings"
	"sync"
)

// goldenFiles are the committed golden renders TestGoldenBitIdentity
// replays; `make goldens-check` fails whenever the runners stop
// producing them byte for byte.
//
//go:embed testdata/golden/*.txt
var goldenFiles embed.FS

// GoldensDigest identifies what this build computes: a digest of the
// committed golden renders. Because the goldens must track the code, a
// change to any experiment's published numbers changes the digest, and
// artifacts computed by another build stop passing for this one's.
func GoldensDigest() string { return goldensDigest() }

var goldensDigest = sync.OnceValue(func() string {
	sub, _ := fs.Sub(goldenFiles, "testdata/golden") // a valid static path
	d, err := digestGoldens(sub)
	if err != nil {
		panic(fmt.Sprintf("experiment: digesting embedded goldens: %v", err))
	}
	return d
})

// digestGoldens is the hex sha256 over every *.txt file at the root of
// fsys, each entered as name, byte length and bytes, in name order.
func digestGoldens(fsys fs.FS) (string, error) {
	ents, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".txt") {
			continue
		}
		data, err := fs.ReadFile(fsys, name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n%d\n", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
