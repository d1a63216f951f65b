package main

import (
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
			Metrics: map[string]float64{"B/op": 128, "allocs/op": 2}},
		{Name: "ServeBatchQPS/reference", Iters: 3, NsPerOp: 910000, MsPerOp: 0.91, MinNsPerOp: 900000, MaxNsPerOp: 950000, N: 3,
			Metrics: map[string]float64{"queries/s": 70000, "B/op": 5000, "allocs/op": 65}},
		{Name: "ServingSession", Iters: 150000, NsPerOp: 8000, MsPerOp: 0.008, MinNsPerOp: 7800, MaxNsPerOp: 8700, N: 3,
			Metrics: map[string]float64{"B/op": 266, "allocs/op": 6}},
		// GOMAXPROCS=1 prints no suffix; an even count takes the mean of
		// the middle pair.
		{Name: "NoProcs", Iters: 5, NsPerOp: 200, MsPerOp: 0.0002, MinNsPerOp: 100, MaxNsPerOp: 300, N: 2},
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Fatalf("entries:\n%+v\nwant\n%+v", rep.Benchmarks, want)
	}
}
