package engine

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"xbarsec/internal/report"
	"xbarsec/internal/rng"
)

// sumResult is a minimal Result for engine tests.
type sumResult struct {
	Values []float64 `json:"values"`
}

func (r *sumResult) Render() string { return fmt.Sprintf("values=%v", r.Values) }
func (r *sumResult) Tables() []*report.Table {
	t := &report.Table{Title: "sum", Header: []string{"i", "v"}}
	for i, v := range r.Values {
		t.AddRow(fmt.Sprint(i), report.F(v, 6))
	}
	return []*report.Table{t}
}
func (r *sumResult) WriteJSON(w io.Writer) error { return WriteJSON(w, r) }

// testGrid draws one normal value per cell from the cell's stream.
func testGrid() *Grid[struct{}, int, float64, *sumResult] {
	return &Grid[struct{}, int, float64, *sumResult]{
		Name:  "sum",
		Title: "test grid",
		Cells: func(t *T, _ struct{}) ([]int, error) {
			n := t.Opts.ScaledCount(100, 8)
			cells := make([]int, n)
			for i := range cells {
				cells[i] = i
			}
			return cells, nil
		},
		Src: func(t *T, cell, i int) *rng.Source { return t.Root.SplitN("cell", cell) },
		Job: func(t *T, _ struct{}, cell int, src *rng.Source) (float64, error) {
			return src.Normal(0, 1), nil
		},
		Reduce: func(t *T, _ struct{}, cells []int, results []float64) (*sumResult, error) {
			return &sumResult{Values: results}, nil
		},
	}
}

func TestGridWorkerInvariance(t *testing.T) {
	g := testGrid()
	var want *sumResult
	for wi, workers := range []int{1, 2, 7} {
		got, err := g.Run(Options{Seed: 3, Scale: 0.1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if wi == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, got, want)
		}
	}
}

func TestGridDefaultSrcMatchesExplicit(t *testing.T) {
	g := testGrid()
	explicit, err := g.Run(Options{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g.Src = nil // default is Root.SplitN("cell", i); cells are 0..n-1 so identical
	def, err := g.Run(Options{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, def) {
		t.Fatal("default cell stream diverged from explicit SplitN(\"cell\", i)")
	}
}

func TestGridSeedLabelIsolation(t *testing.T) {
	g := testGrid()
	a, err := g.Run(Options{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g.SeedLabel = "other-label"
	b, err := g.Run(Options{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seed labels must derive different streams")
	}
}

func TestGridErrorPropagation(t *testing.T) {
	g := testGrid()
	boom := errors.New("boom")
	g.Job = func(t *T, _ struct{}, cell int, src *rng.Source) (float64, error) {
		if cell >= 3 {
			return 0, fmt.Errorf("cell %d: %w", cell, boom)
		}
		return 0, nil
	}
	_, err := g.Run(Options{Seed: 1, Scale: 0.1, Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// pool.DoErr reports the lowest-index failure.
	if !strings.Contains(err.Error(), "cell 3") {
		t.Fatalf("expected lowest failing cell first, got %v", err)
	}
}

func TestGridSetupEnvReachesJobs(t *testing.T) {
	g := &Grid[int, int, int, *sumResult]{
		Name:  "env",
		Setup: func(t *T) (int, error) { return 40, nil },
		Cells: func(t *T, env int) ([]int, error) { return []int{1, 2}, nil },
		Job: func(t *T, env, cell int, src *rng.Source) (int, error) {
			return env + cell, nil
		},
		Reduce: func(t *T, env int, cells, results []int) (*sumResult, error) {
			out := &sumResult{}
			for _, r := range results {
				out.Values = append(out.Values, float64(r))
			}
			return out, nil
		},
	}
	res, err := g.Run(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Values, []float64{41, 42}) {
		t.Fatalf("values %v", res.Values)
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.Normalized()
	if o.Scale != 1 {
		t.Fatalf("default scale %v", o.Scale)
	}
	if (Options{Scale: 2}).Normalized().Scale != 1 {
		t.Fatal("over-scale must clamp to 1")
	}
	if (Options{Scale: 0.1}).ScaledCount(1000, 200) != 200 {
		t.Fatal("ScaledCount must respect minimum")
	}
	if (Options{Scale: 0.5}).Normalized().ScaledCount(1000, 200) != 500 {
		t.Fatal("ScaledCount must multiply")
	}
}

func TestSweepFloatsMatchesAccumulationLoop(t *testing.T) {
	// The exact generator the old fig4Strengths used.
	accumulate := func(step float64) []float64 {
		var out []float64
		for e := 0.0; e <= 10.0+1e-9; e += step {
			out = append(out, e)
		}
		return out
	}
	for _, step := range []float64{1.0, 2.0} {
		want := accumulate(step)
		got := SweepFloats(0, 10, step)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %v: %v vs accumulated %v", step, got, want)
		}
	}
}

func TestSweepFloatsNonExactStep(t *testing.T) {
	got := SweepFloats(0, 1, 0.1)
	if len(got) != 11 {
		t.Fatalf("0..1 by 0.1: %d points (%v)", len(got), got)
	}
	// Integer stepping: point i is exactly lo + i*step, not a running sum.
	for i, v := range got {
		if v != float64(i)*0.1 {
			t.Fatalf("point %d = %v, want %v", i, v, float64(i)*0.1)
		}
	}
	if SweepFloats(0, 10, 0) != nil {
		t.Fatal("zero step must yield nil")
	}
	if SweepFloats(1, 0, 1) != nil {
		t.Fatal("inverted range must yield nil")
	}
	if got := SweepFloats(5, 5, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate range: %v", got)
	}
}

func TestCrossProductRowMajor(t *testing.T) {
	got := CrossProduct(2, 3)
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if CrossProduct(2, 0) != nil {
		t.Fatal("empty axis must yield nil")
	}
}

func TestRegistry(t *testing.T) {
	name := "engine-test-registry-entry"
	Register(Experiment{
		Name:  name,
		Title: "test entry",
		Run: func(opts Options) (Result, error) {
			return nil, errors.New("unused")
		},
	})
	if _, ok := Lookup(name); !ok {
		t.Fatal("registered experiment not found")
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatal("Names missing registered experiment")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register(Experiment{Name: name, Run: func(Options) (Result, error) { return nil, nil }})
}
