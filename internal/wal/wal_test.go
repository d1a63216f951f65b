package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"xbarsec/internal/wal"
)

func replayAll(t *testing.T, path string) ([][]byte, wal.ReplayStats) {
	t.Helper()
	var recs [][]byte
	st, err := wal.Replay(wal.OSFS{}, path, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := wal.Create(wal.OSFS{}, path, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), []byte(""), []byte("three-3"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append(%q): %v", rec, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st := replayAll(t, path)
	if st.Torn {
		t.Error("clean log reported torn")
	}
	if st.Records != len(want) || len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", st.Records, len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	recs, st := replayAll(t, filepath.Join(t.TempDir(), "absent.wal"))
	if len(recs) != 0 || st.Torn || st.Records != 0 {
		t.Fatalf("missing file: got %d records, torn=%v", len(recs), st.Torn)
	}
}

// TestTornTail truncates the log at every possible byte boundary inside
// the final frame: replay must deliver every earlier record intact and
// report the tear, never an error and never a wrong record — the exact
// contract crash recovery leans on.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	w, err := wal.Create(wal.OSFS{}, path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("intact-record")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("doomed-record")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := 8 + len("intact-record")
	// cut == firstFrame would be a clean one-record log; every cut
	// strictly inside the second frame is a tear.
	for cut := firstFrame + 1; cut < len(full); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, st := replayAll(t, torn)
		if len(recs) != 1 || string(recs[0]) != "intact-record" {
			t.Fatalf("cut %d: got %d records %q, want the intact one", cut, len(recs), recs)
		}
		if !st.Torn {
			t.Errorf("cut %d: torn tail not reported", cut)
		}
	}
}

// TestCorruptFrame flips one byte in each region of the first frame:
// replay must stop before delivering the corrupt record.
func TestCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	w, err := wal.Create(wal.OSFS{}, path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 4, 8, len(full) - 1} { // length, crc, payload head, payload tail
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0xFF
		cpath := filepath.Join(dir, fmt.Sprintf("corrupt-%d.wal", pos))
		if err := os.WriteFile(cpath, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, st := replayAll(t, cpath)
		if len(recs) != 0 {
			t.Errorf("byte %d corrupt: delivered %q, want nothing", pos, recs)
		}
		if !st.Torn {
			t.Errorf("byte %d corrupt: not reported torn", pos)
		}
	}
}

func TestMaxBytesBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := wal.Create(wal.OSFS{}, path, wal.Options{MaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := bytes.Repeat([]byte{1}, 20) // 28-byte frame
	if err := w.Append(rec); err != nil {
		t.Fatalf("first append within bound: %v", err)
	}
	if err := w.Append(rec); err != nil {
		t.Fatalf("second append within bound: %v", err)
	}
	if err := w.Append(rec); !errors.Is(err, wal.ErrFull) {
		t.Fatalf("append past bound: got %v, want ErrFull", err)
	}
	// The refused append wrote nothing: the log replays clean.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st := replayAll(t, path)
	if len(recs) != 2 || st.Torn {
		t.Fatalf("after ErrFull: %d records, torn=%v; want 2 clean", len(recs), st.Torn)
	}
}

func TestRecordTooLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := wal.Create(wal.OSFS{}, path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(make([]byte, wal.MaxRecordBytes+1)); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("oversized record: got %v, want ErrTooLarge", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := wal.Create(wal.OSFS{}, path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append([]byte("x")); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}
}

// TestAtomicGeneration pins the compaction lifecycle: the new
// generation is invisible until Commit, the handle keeps appending to
// the committed file, and Abort leaves the old generation untouched.
func TestAtomicGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	old, err := wal.Create(wal.OSFS{}, path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Append([]byte("old-gen")); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	aborted, err := wal.CreateAtomic(wal.OSFS{}, path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := aborted.Append([]byte("never-lands")); err != nil {
		t.Fatal(err)
	}
	if err := aborted.Abort(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, path)
	if len(recs) != 1 || string(recs[0]) != "old-gen" {
		t.Fatalf("after abort: %q, want the old generation", recs)
	}

	next, err := wal.CreateAtomic(wal.OSFS{}, path, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Append([]byte("compacted")); err != nil {
		t.Fatal(err)
	}
	// Until Commit, the live path still replays the old generation.
	recs, _ = replayAll(t, path)
	if len(recs) != 1 || string(recs[0]) != "old-gen" {
		t.Fatalf("before commit: %q, want the old generation", recs)
	}
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	// The handle survives the rename: post-commit appends land in the
	// committed file.
	if err := next.Append([]byte("post-commit")); err != nil {
		t.Fatal(err)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st := replayAll(t, path)
	if st.Torn || len(recs) != 2 || string(recs[0]) != "compacted" || string(recs[1]) != "post-commit" {
		t.Fatalf("after commit: %q (torn=%v), want [compacted post-commit]", recs, st.Torn)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tmp file survived commit: %v", err)
	}
}

// bytesFS serves data as the content of every file it opens, so the
// fuzz target replays from memory rather than disk. Replay only opens
// and reads; the embedded OSFS supplies the rest of the interface.
type bytesFS struct {
	wal.OSFS
	data []byte
}

func (b bytesFS) OpenFile(string, int, os.FileMode) (wal.File, error) {
	return bytesFile{bytes.NewReader(b.data)}, nil
}

type bytesFile struct{ *bytes.Reader }

func (bytesFile) Write([]byte) (int, error) { return 0, errors.New("read-only") }
func (bytesFile) Close() error              { return nil }
func (bytesFile) Sync() error               { return nil }

// FuzzWALReplay replays arbitrary bytes as a journal. Replay never
// panics; each record it yields is the next frame of the input, under
// a CRC-32C that matches its payload; and it stops at the first frame
// that is short, oversized or fails its CRC, yielding nothing after it
// and reporting Torn.
func FuzzWALReplay(f *testing.F) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	const header = 8
	// intact reports whether rest starts with a complete frame whose
	// payload matches its CRC.
	intact := func(rest []byte) bool {
		if len(rest) < header {
			return false
		}
		n := binary.LittleEndian.Uint32(rest)
		return n <= wal.MaxRecordBytes && uint64(len(rest)-header) >= uint64(n) &&
			crc32.Checksum(rest[header:header+int(n)], castagnoli) == binary.LittleEndian.Uint32(rest[4:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		off, yielded := 0, 0
		st, err := wal.Replay(bytesFS{data: data}, "log.wal", func(rec []byte) error {
			if !intact(data[off:]) {
				t.Fatalf("record %d yielded from the bad frame at offset %d", yielded, off)
			}
			n := int(binary.LittleEndian.Uint32(data[off:]))
			if !bytes.Equal(rec, data[off+header:off+header+n]) {
				t.Fatalf("record %d is not the frame at offset %d", yielded, off)
			}
			off += header + n
			yielded++
			return nil
		})
		if err != nil {
			t.Fatalf("Replay errored: %v", err)
		}
		if st.Records != yielded {
			t.Fatalf("Records = %d, yielded %d", st.Records, yielded)
		}
		switch {
		case off == len(data) && st.Torn:
			t.Fatal("a log of whole intact frames reported Torn")
		case off < len(data) && !st.Torn:
			t.Fatalf("replay stopped at offset %d of %d without reporting Torn", off, len(data))
		case off < len(data) && intact(data[off:]):
			t.Fatalf("replay stopped at the intact frame at offset %d", off)
		}
	})
}
