package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// countOutput is `go test -bench -count 3 -benchmem` output from two
// packages, concatenated as make bench-json does.
const countOutput = `goos: linux
goarch: amd64
pkg: xbarsec
cpu: Intel(R) Xeon(R) Processor
BenchmarkCrossbarMVM-2       	     200	      8300 ns/op	     128 B/op	       2 allocs/op
BenchmarkCrossbarMVM-2       	     200	      8100 ns/op	     128 B/op	       2 allocs/op
BenchmarkCrossbarMVM-2       	     200	      9000 ns/op	     130 B/op	       2 allocs/op
BenchmarkServeBatchQPS/reference-2 	       3	    900000 ns/op	     71000 queries/s	    5000 B/op	      65 allocs/op
BenchmarkServeBatchQPS/reference-2 	       3	    950000 ns/op	     67000 queries/s	    5000 B/op	      65 allocs/op
BenchmarkServeBatchQPS/reference-2 	       3	    910000 ns/op	     70000 queries/s	    5000 B/op	      65 allocs/op
PASS
ok  	xbarsec	12.345s
goos: linux
goarch: amd64
pkg: xbarsec/internal/service
cpu: Intel(R) Xeon(R) Processor
BenchmarkServingSession-2    	  160000	      7800 ns/op	     266 B/op	       6 allocs/op
BenchmarkServingSession-2    	  150000	      8700 ns/op	     265 B/op	       6 allocs/op
BenchmarkServingSession-2    	  140000	      8000 ns/op	     266 B/op	       6 allocs/op
BenchmarkNoProcs	       5	       100 ns/op
BenchmarkNoProcs	       5	       300 ns/op
PASS
ok  	xbarsec/internal/service	9.876s
`

func TestParseFoldsRepeats(t *testing.T) {
	rep, err := parse(strings.NewReader(countOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("header = %q %q %q", rep.GOOS, rep.GOARCH, rep.CPU)
	}
	want := []Entry{
		{Name: "CrossbarMVM", Iters: 200, NsPerOp: 8300, MsPerOp: 0.0083, MinNsPerOp: 8100, MaxNsPerOp: 9000, N: 3,
			SamplesNsPerOp: []float64{8300, 8100, 9000},
			Metrics:        map[string]float64{"B/op": 128, "allocs/op": 2}},
		{Name: "ServeBatchQPS/reference", Iters: 3, NsPerOp: 910000, MsPerOp: 0.91, MinNsPerOp: 900000, MaxNsPerOp: 950000, N: 3,
			SamplesNsPerOp: []float64{900000, 950000, 910000},
			Metrics:        map[string]float64{"queries/s": 70000, "B/op": 5000, "allocs/op": 65}},
		{Name: "ServingSession", Iters: 150000, NsPerOp: 8000, MsPerOp: 0.008, MinNsPerOp: 7800, MaxNsPerOp: 8700, N: 3,
			SamplesNsPerOp: []float64{7800, 8700, 8000},
			Metrics:        map[string]float64{"B/op": 266, "allocs/op": 6}},
		// GOMAXPROCS=1 prints no suffix; an even count takes the mean of
		// the middle pair.
		{Name: "NoProcs", Iters: 5, NsPerOp: 200, MsPerOp: 0.0002, MinNsPerOp: 100, MaxNsPerOp: 300, N: 2,
			SamplesNsPerOp: []float64{100, 300}},
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Fatalf("entries:\n%+v\nwant\n%+v", rep.Benchmarks, want)
	}
}

// compareOld and compareNew are canned BENCH files: Slow got twice as
// fast, Jitter moved within its spread, Legacy has no samples on the old
// side (a v1-style entry) and OnlyOld is not in the new file.
const compareOld = `{"schema":"xbarsec-bench/v2","benchmarks":[
 {"name":"Slow","ns_per_op":200000000,"n":3,"samples_ns_per_op":[200000000,204000000,197000000]},
 {"name":"Jitter","ns_per_op":1000,"n":3,"samples_ns_per_op":[900,1000,1150]},
 {"name":"Legacy","ns_per_op":289000,"n":1},
 {"name":"OnlyOld","ns_per_op":5,"n":3,"samples_ns_per_op":[5,5,5]}]}`

const compareNew = `{"schema":"xbarsec-bench/v2","benchmarks":[
 {"name":"Legacy","ns_per_op":385000,"n":3,"samples_ns_per_op":[380000,385000,390000]},
 {"name":"Slow","ns_per_op":100000000,"n":3,"samples_ns_per_op":[101000000,100000000,98000000]},
 {"name":"Jitter","ns_per_op":1050,"n":3,"samples_ns_per_op":[1200,1050,950]},
 {"name":"OnlyNew","ns_per_op":7,"n":3,"samples_ns_per_op":[7,7,7]}]}`

func TestCompare(t *testing.T) {
	var old, cur Report
	if err := json.Unmarshal([]byte(compareOld), &old); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(compareNew), &cur); err != nil {
		t.Fatal(err)
	}
	deltas := compare(old, cur)
	var names []string
	for _, d := range deltas {
		names = append(names, d.Name)
	}
	if want := []string{"Legacy", "Slow", "Jitter"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("compared %v, want the shared names in the new file's order %v", names, want)
	}
	legacy, slow, jitter := deltas[0], deltas[1], deltas[2]
	if legacy.Verdict != "unresolved" || !math.IsNaN(legacy.P) || legacy.OldMs != 0.289 || legacy.NewMs != 0.385 {
		t.Fatalf("entry without samples: %+v, want unresolved with both medians", legacy)
	}
	if slow.Verdict != "significant" || !(slow.P < alpha) || slow.Ratio != 0.5 {
		t.Fatalf("halved benchmark: %+v, want significant at ratio 0.5", slow)
	}
	if jitter.Verdict != "noise" || !(jitter.P >= alpha) || jitter.Ratio != 1.05 {
		t.Fatalf("jittery benchmark: %+v, want noise at ratio 1.05", jitter)
	}
	var out strings.Builder
	if err := printDeltas(&out, deltas); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "benchmark") {
		t.Fatalf("table:\n%s", out.String())
	}
	for i, want := range []string{"Legacy 0.289 0.385 1.332 - unresolved", "Slow 200 100 0.500 5.15e-05 significant"} {
		if got := strings.Join(strings.Fields(lines[i+1]), " "); got != want {
			t.Fatalf("row %d = %q, want %q", i+1, got, want)
		}
	}
}
