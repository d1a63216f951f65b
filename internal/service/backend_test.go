package service

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"xbarsec/api"
	"xbarsec/internal/tensor"
)

// useFast swaps the process backend to fast for one test, restoring the
// previous backend on cleanup. Service tests never run in parallel, so
// the process-global swap is race-free here.
func useFast(t *testing.T) {
	t.Helper()
	prev := tensor.Use(tensor.NewFast(1))
	t.Cleanup(func() { tensor.Use(prev) })
}

// TestTensorBackendSpecNormalization pins the canonicalization contract:
// on a reference server pre-v2.1 specs keep their historical identity
// (no options, unsuffixed key), and on a fast server "", the explicit
// name and an absent envelope all canonicalize to one backend-suffixed
// spec.
func TestTensorBackendSpecNormalization(t *testing.T) {
	// Reference server: "" and "reference" collapse to no options.
	ref := specDefaults(ExperimentSpec{Name: "table1", Seed: 1})
	named := specDefaults(ExperimentSpec{Name: "table1", Seed: 1,
		Options: &api.ExperimentOptions{TensorBackend: tensor.RefName}})
	if named.Options != nil {
		t.Fatalf("explicit %q assertion not canonicalized away: %+v", tensor.RefName, named.Options)
	}
	if specKey(ref) != specKey(named) {
		t.Fatalf("reference spellings split the cache key: %q vs %q", specKey(ref), specKey(named))
	}
	if strings.Contains(specKey(ref), "|tb:") {
		t.Fatalf("reference key lost its historical form: %q", specKey(ref))
	}

	useFast(t)
	bare := specDefaults(ExperimentSpec{Name: "table1", Seed: 1})
	empty := specDefaults(ExperimentSpec{Name: "table1", Seed: 1,
		Options: &api.ExperimentOptions{}})
	fast := specDefaults(ExperimentSpec{Name: "table1", Seed: 1,
		Options: &api.ExperimentOptions{TensorBackend: tensor.FastName}})
	for _, s := range []ExperimentSpec{bare, empty, fast} {
		if s.Options == nil || s.Options.TensorBackend != tensor.FastName {
			t.Fatalf("fast-server spec not canonicalized to %q: %+v", tensor.FastName, s.Options)
		}
	}
	if specKey(bare) != specKey(fast) || specKey(bare) != specKey(empty) {
		t.Fatalf("fast spellings split the cache key: %q vs %q vs %q",
			specKey(bare), specKey(empty), specKey(fast))
	}
	if specKey(bare) == specKey(ref) {
		t.Fatalf("fast artifact aliases the reference key: %q", specKey(bare))
	}
	if !strings.Contains(specKey(bare), "|tb:"+tensor.FastName) {
		t.Fatalf("fast key missing backend suffix: %q", specKey(bare))
	}
	// Canonicalization must not mutate the caller's envelope.
	orig := &api.ExperimentOptions{}
	specDefaults(ExperimentSpec{Name: "table1", Seed: 1, Options: orig})
	if orig.TensorBackend != "" {
		t.Fatalf("specDefaults mutated the caller's options: %+v", orig)
	}
}

// TestTensorBackendValidation pins the refusal contract: unknown
// backend names and assertions the server cannot satisfy are immediate
// bad requests, while a satisfied assertion runs normally and echoes
// the canonical backend in the result. All of it is service behaviour,
// so it runs on the instant stub experiment.
func TestTensorBackendValidation(t *testing.T) {
	registerDurabilityExperiments()
	svc := New(Config{Seed: 1})
	defer svc.Close()
	withTB := func(name string) ExperimentSpec {
		return ExperimentSpec{Name: "svc-test-quick", Seed: 23,
			Options: &api.ExperimentOptions{TensorBackend: name}}
	}
	if _, err := svc.RunExperiment(withTB("blas")); !errors.Is(err, errBadRequest) {
		t.Fatalf("unknown backend: err = %v, want bad request", err)
	}
	if _, err := svc.RunExperiment(withTB(tensor.FastName)); !errors.Is(err, errBadRequest) {
		t.Fatalf("inactive backend: err = %v, want bad request", err)
	}
	res, err := svc.RunExperiment(withTB(tensor.RefName))
	if err != nil {
		t.Fatalf("satisfied assertion refused: %v", err)
	}
	if res.Options != nil && res.Options.TensorBackend != "" {
		t.Fatalf("reference result carries non-canonical backend: %+v", res.Options)
	}

	useFast(t)
	if _, err := svc.RunExperiment(withTB(tensor.RefName)); !errors.Is(err, errBadRequest) {
		t.Fatalf("reference assertion on fast server: err = %v, want bad request", err)
	}
	fastRes, err := svc.RunExperiment(withTB(tensor.FastName))
	if err != nil {
		t.Fatalf("fast assertion on fast server refused: %v", err)
	}
	if fastRes.Options == nil || fastRes.Options.TensorBackend != tensor.FastName {
		t.Fatalf("fast result does not record its backend: %+v", fastRes.Options)
	}
	if fastRes.Cached {
		t.Fatal("fast run served from the reference artifact")
	}
}

// TestTensorBackendKeySeparation pins the cache/spill identity rule for
// the sync job specs: reference keys keep their historical form, fast
// keys are suffixed, so a state directory shared across serving modes
// never aliases their numbers.
func TestTensorBackendKeySeparation(t *testing.T) {
	cSpec := CampaignSpec{Victim: "mnist", Seed: 3, Queries: 50}.withDefaults()
	eSpec := extractDefaults(ExtractSpec{Victim: "mnist", Seed: 3})
	cRef, eRef := cSpec.key(), extractKey(eSpec)
	if strings.Contains(cRef, "|tb:") || strings.Contains(eRef, "|tb:") {
		t.Fatalf("reference keys lost their historical form: %q, %q", cRef, eRef)
	}
	useFast(t)
	cFast, eFast := cSpec.key(), extractKey(eSpec)
	if cFast == cRef || eFast == eRef {
		t.Fatalf("fast keys alias reference artifacts: %q, %q", cFast, eFast)
	}
	suffix := "|tb:" + tensor.FastName
	if !strings.HasSuffix(cFast, suffix) || !strings.HasSuffix(eFast, suffix) {
		t.Fatalf("fast keys missing backend suffix: %q, %q", cFast, eFast)
	}
}

// TestTensorBackendSurfaced pins the observability surface added in
// v2.1: GET /v2/version and GET /v2/stats both report the backend the
// server computes with.
func TestTensorBackendSurfaced(t *testing.T) {
	svc := New(Config{Seed: 1})
	defer svc.Close()
	if got := svc.Stats().TensorBackend; got != tensor.RefName {
		t.Fatalf("Stats().TensorBackend = %q, want %q", got, tensor.RefName)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	get := func(path string, v any) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	var vi api.VersionInfo
	get(api.PathPrefix+"/version", &vi)
	if vi.TensorBackend != tensor.RefName {
		t.Fatalf("/version tensor_backend = %q, want %q", vi.TensorBackend, tensor.RefName)
	}
	var st api.Stats
	get(api.PathPrefix+"/stats", &st)
	if st.TensorBackend != tensor.RefName {
		t.Fatalf("/stats tensor_backend = %q, want %q", st.TensorBackend, tensor.RefName)
	}

	useFast(t)
	get(api.PathPrefix+"/version", &vi)
	if vi.TensorBackend != tensor.FastName {
		t.Fatalf("fast /version tensor_backend = %q, want %q", vi.TensorBackend, tensor.FastName)
	}
	if got := svc.Stats().TensorBackend; got != tensor.FastName {
		t.Fatalf("fast Stats().TensorBackend = %q, want %q", got, tensor.FastName)
	}
}
