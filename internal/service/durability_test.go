package service

// The chaos suite for the durability layer: kill-and-restart recovery,
// torn journal tails, corrupt spill artifacts, spill files from other
// builds, journal-full refusal and panicking jobs — every test named
// TestChaos* so `make chaos` runs the whole suite under the race
// detector. The crash primitive is the fault-injection FS's crash
// switch: an in-process SIGKILL equivalent where abandoned goroutines
// keep running but nothing they do reaches the state directory anymore.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/faultinject"
	"xbarsec/internal/memo"
	"xbarsec/internal/oracle"
	"xbarsec/internal/report"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
	"xbarsec/internal/wal"
)

// durResult is the registered test experiments' deliverable: small,
// deterministic, JSON-stable — cheap enough that chaos tests can launch
// many jobs without the suite crawling.
type durResult struct {
	Name string  `json:"name"`
	Seed int64   `json:"seed"`
	Sum  float64 `json:"sum"`
}

func (r *durResult) Render() string {
	return fmt.Sprintf("%s seed=%d sum=%.17g", r.Name, r.Seed, r.Sum)
}
func (r *durResult) Tables() []*report.Table     { return nil }
func (r *durResult) WriteJSON(w io.Writer) error { return engine.WriteJSON(w, r) }

func durCompute(name string, seed int64) *durResult {
	src := rng.New(seed).Split(name)
	sum := 0.0
	for i := 0; i < 1000; i++ {
		sum += src.Float64()
	}
	return &durResult{Name: name, Seed: seed, Sum: sum}
}

// durBlockGate holds the blocking test experiment mid-run until closed;
// once closed, replays of the same experiment return immediately.
var durBlockGate = make(chan struct{})

var registerDurabilityExperiments = sync.OnceFunc(func() {
	engine.Register(engine.Experiment{
		Name:  "svc-test-quick",
		Title: "deterministic instant result (durability tests only)",
		Run: func(opts engine.Options) (engine.Result, error) {
			return durCompute("svc-test-quick", opts.Seed), nil
		},
	})
	engine.Register(engine.Experiment{
		Name:  "svc-test-block",
		Title: "blocks until the gate closes (durability tests only)",
		Run: func(opts engine.Options) (engine.Result, error) {
			<-durBlockGate
			return durCompute("svc-test-block", opts.Seed), nil
		},
	})
	engine.Register(engine.Experiment{
		Name:  "svc-test-panic",
		Title: "panics mid-run (durability tests only)",
		Run: func(opts engine.Options) (engine.Result, error) {
			panic("kaboom: injected test panic")
		},
	})
})

// TestChaosKillAndRestart is the acceptance test for the whole
// durability layer: launch jobs, kill the process mid-run (crash
// switch), restart on the same state dir, and require every job to
// reach done under its original id with results bit-identical to the
// uninterrupted run — completed ones served from spill, the in-flight
// one recomputed.
func TestChaosKillAndRestart(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	fsys := faultinject.NewFS(wal.OSFS{}, faultinject.FSConfig{Seed: 1})
	s1, rec, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedJobs != 0 || rec.SpilledArtifacts != 0 || rec.TornJournalTail {
		t.Fatalf("fresh open recovery = %+v", rec)
	}

	specs := []ExperimentSpec{
		{Name: "ablate-trace", Seed: 29, Scale: 0.01}, // a real registry experiment
		{Name: "svc-test-quick", Seed: 7},
		{Name: "svc-test-block", Seed: 3},
	}
	// The first two jobs finish before the crash: their completion marks
	// and spilled artifacts are on disk.
	var jobs []*ExperimentJob
	want := map[string]*ExperimentResult{}
	for _, spec := range specs[:2] {
		job, err := s1.LaunchExperiment(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		_, res, jerr := job.Snapshot()
		if jerr != nil {
			t.Fatal(jerr)
		}
		jobs = append(jobs, job)
		want[job.ID()] = res
	}
	// The third is mid-run at the crash: its launch record is journaled,
	// its completion mark and artifact can no longer land.
	blocked, err := s1.LaunchExperiment(specs[2])
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, blocked)
	fsys.Crash()
	close(durBlockGate)
	// The abandoned instance still finishes in memory — that is what a
	// real SIGKILL interrupts — but nothing it does reaches disk now.
	<-blocked.Done()
	if _, res, jerr := blocked.Snapshot(); jerr != nil {
		t.Fatal(jerr)
	} else {
		want[blocked.ID()] = res
	}
	s1.Close()

	// Restart on the same state dir with a healthy filesystem.
	s2, rec2, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.TornJournalTail {
		t.Error("clean journal reported torn")
	}
	if rec2.ReplayedJobs != 3 || rec2.Relaunched != 3 || rec2.FailedJobs != 0 {
		t.Fatalf("recovery = %+v, want 3 replayed / 3 relaunched / 0 failed", rec2)
	}
	if rec2.SpilledArtifacts != 2 {
		t.Fatalf("spill inventory at open = %d, want 2", rec2.SpilledArtifacts)
	}

	for _, orig := range jobs {
		job, err := s2.ExperimentJobByID(orig.ID())
		if err != nil {
			t.Fatalf("job %s lost across restart: %v", orig.ID(), err)
		}
		if job.Spec() != orig.Spec() {
			t.Fatalf("job %s spec changed across restart: %+v vs %+v", orig.ID(), job.Spec(), orig.Spec())
		}
		select {
		case <-job.Done():
		case <-time.After(2 * time.Minute):
			t.Fatalf("job %s never finished after restart", orig.ID())
		}
		_, res, jerr := job.Snapshot()
		if jerr != nil {
			t.Fatalf("job %s failed after restart: %v", orig.ID(), jerr)
		}
		w := want[orig.ID()]
		if res.Render != w.Render || !bytes.Equal(res.Result, w.Result) {
			t.Fatalf("job %s result differs from the uninterrupted run", orig.ID())
		}
	}

	// The completed jobs were served from spill, not recomputed.
	st := s2.Stats()
	if st.ReplayedJobs != 3 || st.FailedJobs != 0 {
		t.Fatalf("stats = %d replayed / %d failed, want 3 / 0", st.ReplayedJobs, st.FailedJobs)
	}
	if st.SpillHits < 2 {
		t.Fatalf("spill hits = %d, want >= 2 (completed jobs must be served from disk)", st.SpillHits)
	}
	if st.SpilledArtifacts != 3 {
		t.Fatalf("spilled artifacts = %d, want 3 (recomputed job written through)", st.SpilledArtifacts)
	}
	for _, id := range []string{jobs[0].ID(), jobs[1].ID()} {
		job, _ := s2.ExperimentJobByID(id)
		_, res, _ := job.Snapshot()
		if !res.Cached {
			t.Errorf("job %s not marked cached — recomputed instead of spill-served", id)
		}
	}
}

// TestChaosCampaignKillAndRestart pins restart safety for the
// synchronous job family: a campaign (and an extraction) whose launch
// record is journaled but whose completion mark never lands — the exact
// bytes a SIGKILL mid-compute leaves behind — is replayed at the next
// Open as soon as its victim registers, lands its artifact in spill
// bit-identical to an uninterrupted run, and disappears from the
// journal once its completion mark folds at the following compaction.
func TestChaosCampaignKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true}
	specA := CampaignSpec{Victim: "m", Mode: oracle.RawOutput, Seed: 3, Queries: 40, Lambda: 0.1}
	specB := CampaignSpec{Victim: "m", Mode: oracle.LabelOnly, Seed: 4, Queries: 40}
	specE := ExtractSpec{Victim: "m", Seed: 5}

	// Reference results from an uninterrupted memory-only run: campaigns
	// and extractions are pure functions of (spec, victim), so recovery
	// must reproduce these bit-for-bit.
	ref := newTestService(t, Config{Seed: 11, Workers: 2}, buildTestVictim(t, "m", 5))
	wantB, err := ref.RunCampaign(specB)
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := ref.RunExtract(specE)
	if err != nil {
		t.Fatal(err)
	}

	s1, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedCampaigns != 0 || rec.ReplayedExtracts != 0 {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	if err := s1.Register(buildTestVictim(t, "m", 5)); err != nil {
		t.Fatal(err)
	}
	// Campaign A completes before the crash: launch + done journaled,
	// artifact spilled.
	if _, err := s1.RunCampaign(specA); err != nil {
		t.Fatal(err)
	}
	// The crash signature for B and E: a launch record with no completion
	// mark (RunCampaign journals the defaulted spec, so mirror that).
	bd := specB.withDefaults()
	if err := s1.journalLaunch(journalRecord{Op: opLaunch, ID: bd.key(), Campaign: &bd}); err != nil {
		t.Fatal(err)
	}
	ed := extractDefaults(specE)
	if err := s1.journalLaunch(journalRecord{Op: opLaunch, ID: extractKey(ed), Extract: &ed}); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, rec2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ReplayedCampaigns != 1 || rec2.ReplayedExtracts != 1 {
		t.Fatalf("recovery = %+v, want 1 replayed campaign and 1 replayed extract", rec2)
	}
	// The replays wait for their victim; registering it triggers the
	// drain, which recomputes both jobs and writes them through to spill
	// (A's artifact + B + E = 3).
	if err := s2.Register(buildTestVictim(t, "m", 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for s2.Stats().SpilledArtifacts < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("replayed jobs never reached spill: %d artifacts", s2.Stats().SpilledArtifacts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The crashed client's retry is served from the artifact store.
	resB, err := s2.RunCampaign(specB)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Cached {
		t.Error("recovered campaign recomputed instead of served from the artifact store")
	}
	if resB.CleanAccuracy != wantB.CleanAccuracy || resB.SurrogateAccuracy != wantB.SurrogateAccuracy ||
		resB.AdvAccuracy != wantB.AdvAccuracy || resB.QueriesCharged != wantB.QueriesCharged {
		t.Fatalf("recovered campaign differs from the uninterrupted run:\n%+v\nvs\n%+v", resB, wantB)
	}
	resE, err := s2.RunExtract(specE)
	if err != nil {
		t.Fatal(err)
	}
	if !resE.Cached {
		t.Error("recovered extraction recomputed instead of served from the artifact store")
	}
	if !reflect.DeepEqual(resE.Signals, wantE.Signals) || !reflect.DeepEqual(resE.Norms, wantE.Norms) {
		t.Fatal("recovered extraction signals differ from the uninterrupted run")
	}
	s2.Close()

	// The completion marks fold at the next compaction: nothing left to
	// replay.
	s3, rec3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec3.ReplayedCampaigns != 0 || rec3.ReplayedExtracts != 0 {
		t.Fatalf("third open still replays sync jobs: %+v", rec3)
	}
}

// TestChaosTornJournalTail feeds Open a journal with a crash signature
// — valid records then half a frame — and requires the intact records
// recovered, the tear reported, and id assignment to continue past the
// replayed jobs.
func TestChaosTornJournalTail(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	w, err := wal.Create(wal.OSFS{}, path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := ExperimentSpec{Name: "svc-test-quick", Seed: 21, Scale: 1}
	for _, rec := range []journalRecord{
		{Op: opLaunch, ID: "job-1", Spec: &spec},
		{Op: opFailed, ID: "job-1", Err: "boom before restart"},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: three bytes of a frame header at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, rec, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !rec.TornJournalTail {
		t.Error("torn tail not reported")
	}
	if rec.ReplayedJobs != 1 || rec.FailedJobs != 1 || rec.Relaunched != 0 {
		t.Fatalf("recovery = %+v, want 1 replayed / 1 failed / 0 relaunched", rec)
	}
	job, err := s.ExperimentJobByID("job-1")
	if err != nil {
		t.Fatal(err)
	}
	status, _, jerr := job.Snapshot()
	if status != JobFailed || jerr == nil || !strings.Contains(jerr.Error(), "boom before restart") {
		t.Fatalf("restored job = %v / %v, want failed with the journaled message", status, jerr)
	}
	// Fresh launches continue past the replayed id.
	job2, err := s.LaunchExperiment(ExperimentSpec{Name: "svc-test-quick", Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if job2.ID() != "job-2" {
		t.Fatalf("post-recovery id = %s, want job-2", job2.ID())
	}
	<-job2.Done()
}

// TestChaosCorruptSpill flips a byte in a spilled artifact and requires
// the store to quarantine it and the service to recompute — a corrupt
// file must never surface as a result, silently wrong or otherwise.
func TestChaosCorruptSpill(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	spec := ExperimentSpec{Name: "svc-test-quick", Seed: 40}
	s1, _, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s1.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	spillDir := filepath.Join(dir, "spill")
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), ".") {
			continue
		}
		p := filepath.Join(spillDir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted != 1 {
		t.Fatalf("corrupted %d artifacts, want exactly 1", corrupted)
	}

	s2, rec, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.SpilledArtifacts != 1 {
		t.Fatalf("inventory = %d, want 1 (corruption is only detected on read)", rec.SpilledArtifacts)
	}
	res2, err := s2.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Error("corrupt artifact served as cached")
	}
	if res2.Render != res1.Render || !bytes.Equal(res2.Result, res1.Result) {
		t.Fatal("recomputed result differs from the original")
	}
	// The corrupt file is quarantined aside; the recompute wrote a fresh
	// good artifact at the live name.
	ents, err = os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	live, quarantined := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".quarantine"):
			quarantined++
		case !strings.Contains(e.Name(), "."):
			live++
		}
	}
	if live != 1 || quarantined != 1 {
		t.Fatalf("spill dir = %d live / %d quarantined, want 1 / 1", live, quarantined)
	}
	if st := s2.Stats(); st.SpilledArtifacts != 1 {
		t.Fatalf("stats count %d spilled artifacts, want 1", st.SpilledArtifacts)
	}
}

// TestChaosSpillFromOtherBuild: a spill file whose record another build
// minted (another goldens digest), or that predates records altogether
// ([sha256(payload)][payload]), is never served, even when its own
// bytes are self-consistent. The artifact endpoint answers
// unknown_artifact, the read-through recomputes the honest result, and
// the recompute rewrites the file under this build's code identity.
func TestChaosSpillFromOtherBuild(t *testing.T) {
	registerDurabilityExperiments()
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, dir, key string, payload []byte)
	}{
		{"other code", func(t *testing.T, dir, key string, payload []byte) {
			sp, err := memo.OpenSpill(wal.OSFS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Put(key, "goldens:0000|tensor:"+tensor.ActiveName(), payload); err != nil {
				t.Fatal(err)
			}
		}},
		{"pre-record layout", func(t *testing.T, dir, key string, payload []byte) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(payload)
			if err := os.WriteFile(filepath.Join(dir, api.ArtifactID(key)), append(sum[:], payload...), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
			// Spec a is asked for by address, spec b through the read-through.
			specs := []ExperimentSpec{{Name: "svc-test-quick", Seed: 61}, {Name: "svc-test-quick", Seed: 62}}
			dir := t.TempDir()
			for _, spec := range specs {
				// Self-consistent bytes with other numbers: what a build with
				// other numerics spilled for this spec.
				stale, err := json.Marshal(ExperimentResult{Name: spec.Name, Seed: spec.Seed,
					Render: "stale numbers", Result: json.RawMessage(`{"sum":0}`)})
				if err != nil {
					t.Fatal(err)
				}
				tc.write(t, filepath.Join(dir, "spill"), specKey(specDefaults(spec)), stale)
			}
			s, rec, err := Open(Config{StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if rec.SpilledArtifacts != 2 {
				t.Fatalf("inventory = %d, want 2 (files are checked on read)", rec.SpilledArtifacts)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			c, err := client.New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			idA := api.ArtifactID(specKey(specDefaults(specs[0])))
			if _, err := c.Artifact(context.Background(), idA); api.CodeOf(err) != api.CodeUnknownArtifact {
				t.Fatalf("GET artifact from another build = %v, want typed unknown_artifact", err)
			}

			ref := newTestService(t, Config{})
			for _, spec := range specs {
				want, err := ref.RunExperiment(spec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.RunExperiment(spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cached {
					t.Errorf("seed %d: artifact from another build served as cached", spec.Seed)
				}
				if res.Render != want.Render || !bytes.Equal(res.Result, want.Result) {
					t.Fatalf("seed %d: served %q, want the honest %q", spec.Seed, res.Render, want.Render)
				}
				_, proof, err := s.artifactAt(api.ArtifactID(specKey(specDefaults(spec))))
				if err != nil || proof.Code != codeIdentity() {
					t.Fatalf("seed %d: file not rewritten under this build: code %q, %v", spec.Seed, proof.Code, err)
				}
			}
		})
	}
}

// TestChaosJournalFull pins graceful degradation: when the journal
// cannot record another launch, the server refuses with a typed
// "unavailable" plus Retry-After — over the API and on the wire — and
// rolls the job record back instead of accepting work without restart
// safety.
func TestChaosJournalFull(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	s, _, err := Open(Config{StateDir: dir, MaxJournalBytes: 220})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	launched := 0
	var launchErr error
	for seed := int64(1); seed <= 50; seed++ {
		job, err := s.LaunchExperiment(ExperimentSpec{Name: "svc-test-quick", Seed: seed})
		if err != nil {
			launchErr = err
			break
		}
		launched++
		<-job.Done()
	}
	if launchErr == nil {
		t.Fatal("50 launches fit in a 220-byte journal")
	}
	if launched == 0 {
		t.Fatal("the first launch must fit")
	}
	if !errors.Is(launchErr, ErrUnavailable) {
		t.Fatalf("refusal = %v, want ErrUnavailable", launchErr)
	}
	var ue *UnavailableError
	if !errors.As(launchErr, &ue) || ue.RetryAfter != 30 {
		t.Fatalf("refusal = %v, want UnavailableError with Retry-After 30", launchErr)
	}
	if e := apiError(launchErr); e.Code != api.CodeUnavailable || e.RetryAfter != 30 {
		t.Fatalf("envelope = %+v, want code unavailable, retry_after 30", e)
	}
	if api.CodeUnavailable.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("unavailable maps to %d, want 503", api.CodeUnavailable.HTTPStatus())
	}
	// The refused job's record was rolled back: the table holds exactly
	// the accepted jobs.
	if got := s.jobs.size(); got != launched {
		t.Fatalf("job table holds %d entries, want %d", got, launched)
	}

	// End to end: the wire response is a 503 with the Retry-After header
	// and the typed envelope.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(api.ExperimentSpec{Name: "svc-test-quick", Seed: 999})
	resp, err := http.Post(ts.URL+api.PathPrefix+"/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After header = %q, want \"30\"", got)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != api.CodeUnavailable || e.RetryAfter != 30 {
		t.Fatalf("wire envelope = %+v, %v", e, err)
	}
}

// TestChaosSyncJournalFull extends the journal-full refusal to the
// synchronous job kinds: with no room for one more record, a campaign
// and an extraction are refused with a typed unavailable and
// Retry-After 30 before anything computes, and the failed flight is not
// cached, so an identical retry is refused the same way.
func TestChaosSyncJournalFull(t *testing.T) {
	// Every launch record is longer than 64 bytes, so none fits.
	s, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: t.TempDir(), MaxJournalBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register(buildTestVictim(t, "m", 5)); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		var ue *UnavailableError
		if !errors.Is(err, ErrUnavailable) || !errors.As(err, &ue) || ue.RetryAfter != 30 {
			t.Fatalf("%s = %v, want UnavailableError with Retry-After 30", what, err)
		}
		if e := apiError(err); e.Code != api.CodeUnavailable || e.RetryAfter != 30 {
			t.Fatalf("%s envelope = %+v, want code unavailable, retry_after 30", what, e)
		}
	}
	before := s.Stats()
	campaign := CampaignSpec{Victim: "m", Mode: oracle.RawOutput, Seed: 3, Queries: 40, Lambda: 0.1}
	extract := ExtractSpec{Victim: "m", Seed: 5}
	for attempt := 1; attempt <= 2; attempt++ {
		_, err := s.RunCampaign(campaign)
		refused(fmt.Sprintf("campaign attempt %d", attempt), err)
		_, err = s.RunExtract(extract)
		refused(fmt.Sprintf("extraction attempt %d", attempt), err)
	}
	after := s.Stats()
	// Nothing computed: no campaign counted, no artifact spilled, and not
	// one probe or collection query reached the victim's coalescer.
	if after.Campaigns != before.Campaigns || after.SpilledArtifacts != before.SpilledArtifacts ||
		after.BatchedQueries != before.BatchedQueries {
		t.Fatalf("refused jobs computed: campaigns %d -> %d, spilled %d -> %d, batched queries %d -> %d",
			before.Campaigns, after.Campaigns, before.SpilledArtifacts, after.SpilledArtifacts,
			before.BatchedQueries, after.BatchedQueries)
	}
	// Not cached: each of the four calls started its own flight.
	if after.CachedArtifacts != 0 || after.CacheMisses-before.CacheMisses != 4 {
		t.Fatalf("cache after refusals: %d artifacts, %d new misses; want 0 and 4",
			after.CachedArtifacts, after.CacheMisses-before.CacheMisses)
	}
}

// TestChaosPanickingJob pins the stuck-job fix: a panic inside an
// experiment marks the job failed with a typed internal error (never
// running forever with its done channel unclosed), counts in stats, and
// survives a restart as failed rather than being re-launched into the
// same panic.
func TestChaosPanickingJob(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	s1, _, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s1.LaunchExperiment(ExperimentSpec{Name: "svc-test-panic", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(time.Minute):
		t.Fatal("panicking job stuck running — done channel never closed")
	}
	status, res, jerr := job.Snapshot()
	if status != JobFailed || res != nil || jerr == nil {
		t.Fatalf("job = %v / %v / %v, want failed with an error", status, res, jerr)
	}
	var pe *memo.PanicError
	if !errors.As(jerr, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "injected test panic") {
		t.Fatalf("err = %v, want a typed memo.PanicError carrying the panic value", jerr)
	}
	// The wire shape a GET jobs/{id} poller sees.
	if e := apiError(jerr); e.Code != api.CodeInternal || e.Message != "experiment job panicked" ||
		!strings.Contains(e.Detail, "injected test panic") {
		t.Fatalf("envelope = %+v", e)
	}
	if got := s1.Stats().FailedJobs; got != 1 {
		t.Fatalf("failed_jobs = %d, want 1", got)
	}
	s1.Close()

	// The failure is durable: restart restores the job failed instead of
	// re-launching it into the same panic.
	s2, rec, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.ReplayedJobs != 1 || rec.FailedJobs != 1 || rec.Relaunched != 0 {
		t.Fatalf("recovery = %+v, want the job restored failed, not relaunched", rec)
	}
	job2, err := s2.ExperimentJobByID(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if status, _, jerr := job2.Snapshot(); status != JobFailed || jerr == nil {
		t.Fatalf("restored job = %v / %v, want failed", status, jerr)
	}
	if got := s2.Stats().FailedJobs; got != 1 {
		t.Fatalf("failed_jobs after restart = %d, want 1", got)
	}
}
