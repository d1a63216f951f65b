package experiment

import (
	"os"
	"testing"
	"testing/fstest"
)

// TestGoldensDigestTracksBytes: the code identity moves with any golden
// byte, and ignores files that are not goldens.
func TestGoldensDigestTracksBytes(t *testing.T) {
	fsys := fstest.MapFS{
		"fig3.txt":   {Data: []byte("Fig. 3 rho=0.91\n")},
		"table1.txt": {Data: []byte("Table I r=0.99\n")},
	}
	before, err := digestGoldens(fsys)
	if err != nil {
		t.Fatal(err)
	}
	fsys["README"] = &fstest.MapFile{Data: []byte("not a golden")}
	if again, _ := digestGoldens(fsys); again != before {
		t.Fatal("a non-golden file moved the digest")
	}
	fsys["table1.txt"].Data[len("Table I r=0.9")] = '8'
	after, err := digestGoldens(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("one changed golden byte left the digest unchanged")
	}
}

// TestGoldensDigestEmbedsCommittedFiles: the embedded digest is the
// digest of testdata/golden as it is on disk.
func TestGoldensDigestEmbedsCommittedFiles(t *testing.T) {
	want, err := digestGoldens(os.DirFS("testdata/golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := GoldensDigest(); got != want {
		t.Fatalf("embedded digest %s, on-disk goldens digest %s", got, want)
	}
}
