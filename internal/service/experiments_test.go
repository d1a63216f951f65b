package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/experiment"
	"xbarsec/internal/experiment/engine"
)

// expSpec is a cheap experiment job for tests: one victim, three
// sequential strategies.
func expSpec(seed int64) ExperimentSpec {
	return ExperimentSpec{Name: "ablate-trace", Seed: seed, Scale: 0.01}
}

func TestRunExperimentServesRegistryEntry(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	res, err := svc.RunExperiment(expSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("first run must not be cached")
	}
	if !strings.Contains(res.Render, "Extension A6") {
		t.Fatalf("render incomplete:\n%s", res.Render)
	}
	var decoded experiment.TraceAblationResult
	if err := json.Unmarshal(res.Result, &decoded); err != nil {
		t.Fatalf("structured result does not parse: %v", err)
	}
	if len(decoded.Rows) != 3 {
		t.Fatalf("structured result rows = %d", len(decoded.Rows))
	}
	// The job result is byte-identical to the Go API at the same
	// options (worker count excluded from the spec on purpose).
	direct, err := experiment.RunTraceAblation(experiment.Options{Seed: 21, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render != direct.Render() {
		t.Fatal("service render diverged from direct run")
	}
	if !reflect.DeepEqual(&decoded, direct) {
		t.Fatalf("service result diverged from direct run:\n%+v\nvs\n%+v", &decoded, direct)
	}
	// Replay is a cache hit with the same payload.
	again, err := svc.RunExperiment(expSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("replay must be served from the artifact cache")
	}
	if again.Render != res.Render {
		t.Fatal("cached replay diverged")
	}
}

func TestRunExperimentValidation(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	if _, err := svc.RunExperiment(ExperimentSpec{Name: "no-such-grid", Seed: 1}); !errors.Is(err, ErrExperimentUnknown) {
		t.Fatalf("err = %v, want ErrExperimentUnknown", err)
	}
	if _, err := svc.RunExperiment(ExperimentSpec{Name: "table1", Seed: 1, Scale: 7}); !errors.Is(err, errBadRequest) {
		t.Fatalf("err = %v, want bad request", err)
	}
	// An absurd runs value must be refused before any grid allocation.
	if _, err := svc.RunExperiment(ExperimentSpec{Name: "table1", Seed: 1, Scale: 0.01, Runs: 2_000_000_000}); !errors.Is(err, errBadRequest) {
		t.Fatalf("huge runs err = %v, want bad request", err)
	}
	if _, err := svc.LaunchExperiment(ExperimentSpec{Name: "table1", Seed: 1, Scale: 0.01, Runs: -1}); !errors.Is(err, errBadRequest) {
		t.Fatalf("negative runs err = %v, want bad request", err)
	}
	if _, err := svc.LaunchExperiment(ExperimentSpec{Name: "no-such-grid", Seed: 1}); !errors.Is(err, ErrExperimentUnknown) {
		t.Fatalf("launch err = %v, want ErrExperimentUnknown", err)
	}
}

func TestExperimentsListsRegistry(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	infos := svc.Experiments(ExperimentSpec{Scale: 0.01})
	if len(infos) != len(engine.Names()) {
		t.Fatalf("listed %d experiments, registry has %d", len(infos), len(engine.Names()))
	}
	byName := map[string]ExperimentInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	tbl, ok := byName["table1"]
	if !ok {
		t.Fatal("table1 missing from listing")
	}
	if tbl.Title == "" || len(tbl.Axes) != 2 {
		t.Fatalf("table1 listing incomplete: %+v", tbl)
	}
}

func TestLaunchExperimentJobLifecycle(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	job, err := svc.LaunchExperiment(expSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() == "" {
		t.Fatal("job has no id")
	}
	got, err := svc.ExperimentJobByID(job.ID())
	if err != nil || got != job {
		t.Fatalf("job lookup: %v", err)
	}
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("job never finished")
	}
	status, res, jerr := job.Snapshot()
	if status != JobDone || jerr != nil || res == nil {
		t.Fatalf("snapshot: status=%v res=%v err=%v", status, res, jerr)
	}
	if !strings.Contains(res.Render, "Extension A6") {
		t.Fatal("job result incomplete")
	}
	if _, err := svc.ExperimentJobByID("job-999999"); !errors.Is(err, ErrJobUnknown) {
		t.Fatalf("unknown job err = %v", err)
	}
}

func TestLaunchExperimentValidatesLikeRun(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	// Invalid scale is rejected at launch time — an immediate 400, the
	// same behavior as the synchronous path, with no job record left
	// behind.
	if _, err := svc.LaunchExperiment(ExperimentSpec{Name: "ablate-trace", Seed: 1, Scale: -3}); !errors.Is(err, errBadRequest) {
		t.Fatalf("err = %v, want bad request", err)
	}
	if n := svc.jobs.size(); n != 0 {
		t.Fatalf("rejected launch left %d job records", n)
	}
}

func TestJobTableBackpressureAndEviction(t *testing.T) {
	tb := newJobTable(2)
	running := func() *ExperimentJob {
		return &ExperimentJob{spec: ExperimentSpec{Name: "x"}, done: make(chan struct{})}
	}
	a, b := running(), running()
	if err := tb.add(a); err != nil {
		t.Fatal(err)
	}
	if err := tb.add(b); err != nil {
		t.Fatal(err)
	}
	// Table full of running jobs: admission is refused, nothing evicted.
	if err := tb.add(running()); !errors.Is(err, ErrJobLimit) {
		t.Fatalf("err = %v, want ErrJobLimit", err)
	}
	if tb.size() != 2 {
		t.Fatalf("size %d after refused add", tb.size())
	}
	// A finished job frees a slot; the oldest finished one is evicted.
	close(a.done)
	c := running()
	if err := tb.add(c); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.get(a.ID()); ok {
		t.Fatal("finished job not evicted")
	}
	if _, ok := tb.get(c.ID()); !ok {
		t.Fatal("admitted job not tracked")
	}
	if c.ID() == "" {
		t.Fatal("add must assign the id")
	}
}

func TestExperimentSpecNormalization(t *testing.T) {
	// Scale 0 means full scale; both spellings must share one cache key.
	a := specDefaults(ExperimentSpec{Name: "table1", Seed: 1})
	b := specDefaults(ExperimentSpec{Name: "table1", Seed: 1, Scale: 1})
	if specKey(a) != specKey(b) {
		t.Fatalf("equivalent specs have distinct keys: %q vs %q", specKey(a), specKey(b))
	}
	if c := specDefaults(ExperimentSpec{Name: "table1", Seed: 1, Scale: 0.5}); c.Scale != 0.5 {
		t.Fatalf("explicit scale mangled: %v", c.Scale)
	}
	// An empty options envelope (or one with an all-zero fig5 entry) is
	// the same experiment as no options at all.
	c := specDefaults(ExperimentSpec{Name: "fig5", Seed: 1, Options: &api.ExperimentOptions{}})
	d := specDefaults(ExperimentSpec{Name: "fig5", Seed: 1, Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{}}})
	e := specDefaults(ExperimentSpec{Name: "fig5", Seed: 1})
	if c.Options != nil || d.Options != nil || specKey(c) != specKey(e) || specKey(d) != specKey(e) {
		t.Fatalf("empty options not normalized: %q %q %q", specKey(c), specKey(d), specKey(e))
	}
	// Distinct grids are distinct experiments.
	f := specDefaults(ExperimentSpec{Name: "fig5", Seed: 1,
		Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{Queries: []int{5, 10}}}})
	if specKey(f) == specKey(e) {
		t.Fatal("optioned spec shares the default key")
	}
}

func TestExperimentOptionValidation(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	cases := []struct {
		name string
		spec ExperimentSpec
	}{
		{"options for wrong experiment", ExperimentSpec{Name: "table1", Seed: 1, Scale: 0.01,
			Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{Queries: []int{5}}}}},
		{"non-positive query", ExperimentSpec{Name: "fig5", Seed: 1, Scale: 0.01,
			Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{Queries: []int{0}}}}},
		{"negative lambda", ExperimentSpec{Name: "fig5", Seed: 1, Scale: 0.01,
			Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{Lambdas: []float64{-1}}}}},
		{"oversized grid", ExperimentSpec{Name: "fig5", Seed: 1, Scale: 0.01,
			Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{Queries: make([]int, maxOptionGrid+1)}}}},
		{"absurd epochs", ExperimentSpec{Name: "fig5", Seed: 1, Scale: 0.01,
			Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{SurrogateEpochs: maxSurrogateEpochs + 1}}}},
	}
	for _, tc := range cases {
		if _, err := svc.RunExperiment(tc.spec); !errors.Is(err, errBadRequest) {
			t.Errorf("%s: err = %v, want bad request", tc.name, err)
		}
		if _, err := svc.LaunchExperiment(tc.spec); !errors.Is(err, errBadRequest) {
			t.Errorf("%s (launch): err = %v, want bad request", tc.name, err)
		}
	}
}

// TestFig5OptionsEndToEnd pins the ROADMAP item this API closes: a
// remote spec carrying custom query/λ grids runs RunFig5 with exactly
// those grids and returns a structured result matching the direct Go
// call bit for bit.
func TestFig5OptionsEndToEnd(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	spec := ExperimentSpec{Name: "fig5", Seed: 31, Scale: 0.01,
		Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{
			Queries: []int{5, 15}, Lambdas: []float64{0, 0.01}, SurrogateEpochs: 2,
		}}}
	res, err := svc.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded experiment.Fig5Result
	if err := json.Unmarshal(res.Result, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Rows) == 0 {
		t.Fatal("no fig5 rows")
	}
	for _, row := range decoded.Rows {
		if !reflect.DeepEqual(row.Queries, []int{5, 15}) || !reflect.DeepEqual(row.Lambdas, []float64{0, 0.01}) {
			t.Fatalf("row grids = %v / %v, want the requested sub-grid", row.Queries, row.Lambdas)
		}
	}
	direct, err := experiment.RunFig5(experiment.Fig5Options{
		Options:         experiment.Options{Seed: 31, Scale: 0.01},
		Queries:         []int{5, 15},
		Lambdas:         []float64{0, 0.01},
		SurrogateEpochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render != direct.Render() {
		t.Fatal("optioned job render diverged from direct RunFig5")
	}
	if !reflect.DeepEqual(&decoded, direct) {
		t.Fatal("optioned job result diverged from direct RunFig5")
	}
	// The optioned result must not collide with the default-grid cache
	// entry: the keys differ, and outside -short (the full default grid
	// takes minutes under the race detector) a real run proves it.
	plain := ExperimentSpec{Name: "fig5", Seed: 31, Scale: 0.01}
	if specKey(specDefaults(plain)) == specKey(specDefaults(spec)) {
		t.Fatalf("optioned and default-grid fig5 share the cache key %q", specKey(specDefaults(spec)))
	}
	if testing.Short() {
		return
	}
	plainRes, err := svc.RunExperiment(plain)
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.Cached {
		t.Fatal("default-grid run served the optioned artifact")
	}
}

func TestExperimentHTTPEndToEnd(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// List.
	infos, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(engine.Names()) {
		t.Fatalf("HTTP listed %d experiments", len(infos))
	}

	// Launch with wait: one round trip returns the finished result.
	spec := ExperimentSpec{Name: "ablate-trace", Seed: 23, Scale: 0.01}
	res, err := c.RunExperiment(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render, "Extension A6") {
		t.Fatal("HTTP result render incomplete")
	}

	// Async launch + WaitJob poll (same spec: served from cache).
	launched, err := c.LaunchExperiment(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if launched.ID == "" || launched.Spec.Name != "ablate-trace" {
		t.Fatalf("async launch: %+v", launched)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	polled, err := c.WaitJob(waitCtx, launched.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if polled.Status != JobDone || polled.Result == nil || !polled.Result.Cached {
		t.Fatalf("replayed job must be cache-served: %+v", polled.Result)
	}

	// Unknown experiment and unknown job carry their typed codes.
	if _, err := c.LaunchExperiment(ctx, ExperimentSpec{Name: "nope", Seed: 1}); api.CodeOf(err) != api.CodeUnknownExperiment {
		t.Fatalf("unknown experiment err = %v", err)
	}
	if _, err := c.ExperimentJob(ctx, "job-999999"); api.CodeOf(err) != api.CodeUnknownJob {
		t.Fatalf("unknown job err = %v", err)
	}
}
