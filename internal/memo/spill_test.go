package memo_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xbarsec/api"
	"xbarsec/internal/faultinject"
	"xbarsec/internal/memo"
	"xbarsec/internal/wal"
)

func TestSpillPutGetRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("artifact"), 100)
	if err := s.Put("experiment|fig3|1|0.5|8", testCode, payload); err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := s.Get("experiment|fig3|1|0.5|8", testCode)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after reload")
	}
	if _, _, ok, _ := s.Get("experiment|fig3|2|0.5|8", testCode); ok {
		t.Fatal("absent key reported present")
	}
	st := s.Stats()
	if st.Artifacts != 1 || st.Bytes != spillFileSize(t, dir, "experiment|fig3|1|0.5|8") || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSpillSurvivesReopen is the warm-restart property: a fresh store
// over the same directory inventories and serves what the previous
// process spilled.
func TestSpillSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", testCode, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-b", testCode, []byte("beta-beta")); err != nil {
		t.Fatal(err)
	}

	s2, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	want := spillFileSize(t, dir, "key-a") + spillFileSize(t, dir, "key-b")
	if st.Artifacts != 2 || st.Bytes != want {
		t.Fatalf("reopened inventory = %+v, want 2 artifacts, %d bytes", st, want)
	}
	got, _, ok, err := s2.Get("key-a", testCode)
	if err != nil || !ok || string(got) != "alpha" {
		t.Fatalf("reload across reopen: %q ok=%v err=%v", got, ok, err)
	}
}

// TestSpillRecordRestartInventory: records written through the
// fault-injecting FS (with no faults planned) are inventoried by a
// store reopened over the plain OS FS, and each is served by address
// under the exact chain Put minted for it.
func TestSpillRecordRestartInventory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s1, err := memo.OpenSpill(faultinject.NewFS(wal.OSFS{}, faultinject.FSConfig{Seed: 1}), dir)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		"experiment|fig4|7|0.01|1": []byte(`{"name":"fig4"}`),
		"other-key":                []byte("other-payload"),
	}
	for key, payload := range payloads {
		if err := s1.Put(key, testCode, payload); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Artifacts != 2 {
		t.Fatalf("restart inventory = %+v, want 2 artifacts", st)
	}
	for key, payload := range payloads {
		got, rec, ok, err := s2.GetAddr(api.ArtifactID(key), testCode)
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s after restart: %q ok=%v err=%v", key, got, ok, err)
		}
		if want := api.BuildProof(key, testCode, payload); rec != want {
			t.Fatalf("%s after restart: record %+v, want %+v", key, rec, want)
		}
	}
}

// TestSpillQuarantine corrupts and truncates spilled files in every way
// that matters: none may be served, each must be quarantined, and the
// quarantined file must not be re-counted on reopen.
func TestSpillQuarantine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	mangle := func(t *testing.T, key string, f func([]byte) []byte) {
		t.Helper()
		if err := s.Put(key, testCode, []byte("precious-artifact-bytes")); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(key))
		path := filepath.Join(dir, hex.EncodeToString(sum[:]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mangle(t, "bitflip", func(d []byte) []byte { d[len(d)-1] ^= 0xFF; return d })
	mangle(t, "truncated", func(d []byte) []byte { return d[:len(d)/2] })
	mangle(t, "headerless", func(d []byte) []byte { return d[:10] })

	for _, key := range []string{"bitflip", "truncated", "headerless"} {
		got, _, ok, err := s.Get(key, testCode)
		if err != nil {
			t.Fatalf("%s: Get errored: %v", key, err)
		}
		if ok {
			t.Fatalf("%s: corrupt artifact served: %q", key, got)
		}
		// Quarantined, not deleted: the bytes stay for inspection.
		if _, _, ok, _ := s.Get(key, testCode); ok {
			t.Fatalf("%s: corrupt artifact served on second read", key)
		}
	}
	if st := s.Stats(); st.Corrupt != 3 || st.Artifacts != 0 {
		t.Fatalf("stats after quarantine = %+v, want Corrupt=3 Artifacts=0", st)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	quar := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".quarantine") {
			quar++
		}
	}
	if quar != 3 {
		t.Fatalf("%d quarantine files, want 3", quar)
	}

	// Reopen: quarantined files are not inventory.
	s2, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Artifacts != 0 || st.Bytes != 0 {
		t.Fatalf("reopened inventory over quarantine = %+v, want empty", st)
	}
}

// TestSpillSweepsStaleTmp: a crash between create and rename leaves a
// .tmp file; reopening must sweep it and not count it.
func TestSpillSweepsStaleTmp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, strings.Repeat("ab", 32)+".tmp")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Artifacts != 0 {
		t.Fatalf("stale tmp counted as artifact: %+v", st)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale tmp not swept: %v", err)
	}
}

// testCode is the code identity the spill tests write and read under.
const testCode = "goldens:deadbeef|tensor:reference"

// spillFileSize is the on-disk size of the file key spilled to.
func spillFileSize(t *testing.T, dir, key string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, api.ArtifactID(key)))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestSpillGetAddr: serving by address returns the payload with the
// record Put minted, a malformed address is an error and never a path
// lookup, and a second Put of a key on disk is a no-op.
func TestSpillGetAddr(t *testing.T) {
	s, err := memo.OpenSpill(wal.OSFS{}, filepath.Join(t.TempDir(), "spill"))
	if err != nil {
		t.Fatal(err)
	}
	const key = "experiment|fig4|7|0.01|1"
	payload := []byte(`{"name":"fig4","seed":7,"render":"ok"}`)
	for range 2 {
		if err := s.Put(key, testCode, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Puts != 1 || st.Artifacts != 1 {
		t.Fatalf("duplicate Put wrote again: %+v", st)
	}
	got, rec, ok, err := s.GetAddr(api.ArtifactID(key), testCode)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("GetAddr = %q, %v, %v", got, ok, err)
	}
	if rec != api.BuildProof(key, testCode, payload) {
		t.Fatalf("record = %+v, want the chain Put built", rec)
	}
	for _, addr := range []string{"", "..", "../../etc/passwd", strings.Repeat("AB", 32)} {
		if _, _, ok, err := s.GetAddr(addr, testCode); ok || err == nil {
			t.Fatalf("GetAddr(%q) = %v, %v; want an invalid-address error", addr, ok, err)
		}
	}
}

// FuzzSpillRecord writes arbitrary bytes as the spill file of one key
// and reads them back. The read never panics; it serves a payload only
// when the decoded record is exactly the chain api.BuildProof derives
// for (key, code, payload); and a file it refuses leaves the live name
// and is counted once.
func FuzzSpillRecord(f *testing.F) {
	const key = "experiment|fig4|7|0.01|1"
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, api.ArtifactID(key))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := memo.OpenSpill(wal.OSFS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		payload, rec, ok, err := s.Get(key, testCode)
		if err != nil {
			t.Fatalf("Get errored: %v", err)
		}
		if ok {
			if want := api.BuildProof(key, testCode, payload); rec != want {
				t.Fatalf("served under record %+v, want %+v", rec, want)
			}
			return
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused file still at its live name: %v", err)
		}
		if _, _, ok, _ := s.Get(key, testCode); ok {
			t.Fatal("refused file served on a second read")
		}
		if st := s.Stats(); st.Corrupt != 1 || st.Artifacts != 0 || st.Bytes != 0 {
			t.Fatalf("stats after one refusal = %+v, want Corrupt=1 and an empty inventory", st)
		}
	})
}

// TestDoPanicIsTypedError: a panicking computation must fail the flight
// with a typed error for the caller AND any joined waiters — before
// this, the waiters would deadlock on a never-closed ready channel.
func TestDoPanicIsTypedError(t *testing.T) {
	c := memo.New[int](8)
	started := make(chan struct{})
	var waitErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started
		_, _, waitErr = c.Do("boom", func() (int, error) {
			t.Error("waiter recomputed instead of joining the flight")
			return 0, nil
		})
	}()

	_, _, err := c.Do("boom", func() (int, error) {
		close(started)
		// Give the waiter time to join the in-flight entry; joining is a
		// map lookup under the cache mutex, so this is generous.
		time.Sleep(100 * time.Millisecond)
		panic("kaboom")
	})
	var pe *memo.PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("caller error = %v, want PanicError(kaboom)", err)
	}
	wg.Wait()
	if !errors.As(waitErr, &pe) {
		t.Fatalf("waiter error = %v, want PanicError", waitErr)
	}

	// Failed flights are not cached: the key is retryable.
	v, _, err := c.Do("boom", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry after panic: %d, %v", v, err)
	}
}
