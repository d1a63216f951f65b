package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"xbarsec/api"
	"xbarsec/internal/wal"
)

// SpillStore is the content-addressed on-disk tier behind the in-memory
// artifact cache: values evicted by the byte-weight bound (and every
// completed job's artifact, written through at completion) land here and
// are served on later misses, so a process restart goes warm instead of
// recomputing hours of campaign work.
//
// Addressing: each artifact is one file named api.ArtifactID(key) —
// keys are the same deterministic spec keys the cache uses, so the same
// spec always maps to the same file across restarts. Integrity: the
// file carries its own provenance record (api.ArtifactProof: spec hash
// → code hash → result hash → root), and every read passes CheckRecord
// against the address asked for and the caller's code identity before
// serving. A file that fails — bit rot, a torn write that survived
// rename, a layout from an older build, a record minted by other code —
// is quarantined rather than served. Writes are tmp+fsync+rename
// atomic, so a crash mid-Put leaves either the previous content or
// nothing, never a half-written artifact at the live name.
//
// File layout: [u32 LE record length][record JSON][payload].
type SpillStore struct {
	fsys wal.FS
	dir  string

	// putMu serializes writers of distinct keys only for the counter
	// updates' benefit; same-key writers are already collapsed upstream
	// by the cache's singleflight.
	putMu sync.Mutex

	artifacts atomic.Int64 // live artifact files
	bytes     atomic.Int64 // their total file bytes
	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	corrupt   atomic.Int64 // files quarantined by a failed check
}

const (
	spillHeaderSize = 4
	spillTmpSuffix  = ".tmp"
	spillQuarSuffix = ".quarantine"
)

// SpillStats is a snapshot of the store's counters for GET /v2/stats.
type SpillStats struct {
	// Artifacts and Bytes describe what is on disk now (preexisting
	// files from earlier runs included); Bytes counts whole files,
	// records included.
	Artifacts int64
	Bytes     int64
	// Hits, Misses, Puts and Corrupt count this process's activity:
	// checked reloads, absent keys, artifacts written, and files
	// quarantined by failed checks.
	Hits, Misses, Puts, Corrupt int64
}

// OpenSpill opens (creating if needed) a spill store rooted at dir. It
// scans the directory to seed the artifact/byte counters with what
// earlier runs left behind — that inventory is what makes a restart
// warm — and sweeps stale temporary files from crashed Puts.
func OpenSpill(fsys wal.FS, dir string) (*SpillStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: creating spill dir %s: %w", dir, err)
	}
	s := &SpillStore{fsys: fsys, dir: dir}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("memo: scanning spill dir %s: %w", dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasSuffix(name, spillTmpSuffix) {
			// A crash between create and rename; the live name never saw it.
			_ = fsys.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.HasSuffix(name, spillQuarSuffix) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		s.artifacts.Add(1)
		s.bytes.Add(info.Size())
	}
	return s, nil
}

// ValidAddr reports whether s is a well-formed content address: exactly
// the 64 lowercase hex characters api.ArtifactID produces. Callers
// serving artifacts by client-supplied address must check it first —
// anything else (path separators, "..", uppercase aliases) is rejected
// rather than mapped to a file.
func ValidAddr(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// CheckRecord is the one test an artifact's bytes pass before anything
// serves them, whether they come from this store or from a peer: the
// record's chain re-derives and binds the payload (ArtifactProof.Verify),
// its id is the address the caller asked for, and its code is the
// caller's code identity — so bytes proven for another spec, or
// computed by a build with different numerics, are refused.
func CheckRecord(rec *api.ArtifactProof, id, code string, payload []byte) error {
	if rec.ID != id {
		return fmt.Errorf("memo: record is for artifact %s, want %s", rec.ID, id)
	}
	if rec.Code != code {
		return fmt.Errorf("memo: record computed by %q, want %q", rec.Code, code)
	}
	return rec.Verify(payload)
}

// Put spills one artifact with its provenance record under code,
// atomically: one file, one fsync. A key already on disk is left alone:
// keys are deterministic spec hashes, and a file from other code is
// quarantined by the read that precedes every recompute. Failure leaves
// no partial file at the live name.
func (s *SpillStore) Put(key, code string, payload []byte) error {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	path := filepath.Join(s.dir, api.ArtifactID(key))
	if _, err := s.fsys.Stat(path); err == nil {
		return nil
	}
	rec, err := json.Marshal(api.BuildProof(key, code, payload))
	if err != nil {
		return fmt.Errorf("memo: spill record: %w", err)
	}
	tmp := path + spillTmpSuffix
	f, err := s.fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("memo: spill create: %w", err)
	}
	buf := make([]byte, 0, spillHeaderSize+len(rec)+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
	buf = append(buf, rec...)
	buf = append(buf, payload...)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("memo: spill write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("memo: spill sync: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("memo: spill close: %w", err)
	}
	if err := s.fsys.Rename(tmp, path); err != nil {
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("memo: spill rename: %w", err)
	}
	s.puts.Add(1)
	s.artifacts.Add(1)
	s.bytes.Add(int64(len(buf)))
	return nil
}

// Get reloads the artifact spilled under key, for code; see GetAddr.
func (s *SpillStore) Get(key, code string) ([]byte, api.ArtifactProof, bool, error) {
	return s.GetAddr(api.ArtifactID(key), code)
}

// GetAddr reloads one artifact and its record by content address,
// accepting it only if CheckRecord passes for (addr, code). A missing
// file is a miss (ok false, nil error). A file that fails — truncated,
// bit-flipped, torn, undecodable, or proven for another address or
// other code — is quarantined (renamed aside, kept for inspection) and
// reported as a miss: the store never serves bytes it cannot prove are
// what this code computes for this address. An invalid address is an
// error, never a path lookup.
func (s *SpillStore) GetAddr(addr, code string) ([]byte, api.ArtifactProof, bool, error) {
	var none api.ArtifactProof
	if !ValidAddr(addr) {
		return nil, none, false, fmt.Errorf("memo: invalid artifact address %q", addr)
	}
	path := filepath.Join(s.dir, addr)
	f, err := s.fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return nil, none, false, nil
		}
		return nil, none, false, fmt.Errorf("memo: spill open: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, none, false, fmt.Errorf("memo: spill read: %w", err)
	}
	rec, payload, ok := decodeSpill(data)
	if !ok || CheckRecord(&rec, addr, code, payload) != nil {
		s.quarantine(path, int64(len(data)))
		return nil, none, false, nil
	}
	s.hits.Add(1)
	return payload, rec, true, nil
}

// decodeSpill splits a spill file into its record and payload; ok is
// false when the layout does not parse.
func decodeSpill(data []byte) (rec api.ArtifactProof, payload []byte, ok bool) {
	if len(data) < spillHeaderSize {
		return rec, nil, false
	}
	n := uint64(binary.LittleEndian.Uint32(data))
	body := data[spillHeaderSize:]
	if n > uint64(len(body)) || json.Unmarshal(body[:n], &rec) != nil {
		return api.ArtifactProof{}, nil, false
	}
	return rec, body[n:], true
}

// quarantine moves a failed file aside and fixes the counters.
func (s *SpillStore) quarantine(path string, fileBytes int64) {
	s.corrupt.Add(1)
	s.misses.Add(1)
	s.artifacts.Add(-1)
	s.bytes.Add(-fileBytes)
	if err := s.fsys.Rename(path, path+spillQuarSuffix); err != nil {
		// Renaming aside failed (crashed FS, permissions); removing is the
		// fallback that still stops the failed bytes from being served.
		_ = s.fsys.Remove(path)
	}
}

// Stats snapshots the counters.
func (s *SpillStore) Stats() SpillStats {
	return SpillStats{
		Artifacts: s.artifacts.Load(),
		Bytes:     s.bytes.Load(),
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}
