// Command benchjson converts `go test -bench` output on stdin into the
// BENCH_*.json format the repo uses to record its performance trajectory:
// a header naming the machine (go test's goos, goarch and cpu lines) and
// the git revision, then one entry per benchmark. Lines that are neither
// benchmark results nor header lines are skipped, so several -bench runs
// can be concatenated. The -count repeats of one benchmark fold into one
// entry: ns/op and every other metric (B/op and allocs/op under
// -benchmem, custom b.ReportMetric units) become their median, and the
// entry records the repeat count and the ns/op range:
//
//	{ go test -run XXX -bench 'Gemm' -benchtime 200x -count 3 -benchmem .; \
//	  go test -run XXX -bench 'Table1$' -benchtime 3x -count 3 -benchmem .; } \
//	  | go run ./cmd/benchjson > BENCH_19.json
//
// With -compare it reads two such files instead and prints, for every
// benchmark both record, the two median ns/op (in ms), their ratio, and
// where both entries keep at least two samples a Welch t-test's p over
// the samples: "significant" below 0.05, "noise" otherwise. An entry
// without samples (v1 files, and v2 files written before the samples
// field) cannot be tested and reads "unresolved":
//
//	go run ./cmd/benchjson -compare BENCH_18.json BENCH_19.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"xbarsec/internal/stats"
)

// Entry is one benchmark's measurements, folded over its repeats.
// NsPerOp, Iters and each Metrics value are medians over the N repeats;
// MinNsPerOp and MaxNsPerOp bound the repeats' ns/op, and SamplesNsPerOp
// lists them in the order they ran.
type Entry struct {
	Name           string             `json:"name"`
	Iters          int64              `json:"iterations"`
	NsPerOp        float64            `json:"ns_per_op"`
	MsPerOp        float64            `json:"ms_per_op"`
	MinNsPerOp     float64            `json:"min_ns_per_op"`
	MaxNsPerOp     float64            `json:"max_ns_per_op"`
	N              int                `json:"n"`
	SamplesNsPerOp []float64          `json:"samples_ns_per_op,omitempty"`
	Metrics        map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_*.json schema. v2 added the header and the
// repeat fields, and later, additively, the samples; a v2 entry with
// n = 1 reads as a v1 entry.
type Report struct {
	Schema     string  `json:"schema"`
	GOOS       string  `json:"goos,omitempty"`
	GOARCH     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Revision   string  `json:"revision,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	comparing := flag.Bool("compare", false, "compare two BENCH_*.json files: benchjson -compare old.json new.json")
	flag.Parse()
	if *comparing {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two files, got %d", flag.NArg()))
		}
		old, err := readReport(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		cur, err := readReport(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if err := printDeltas(os.Stdout, compare(old, cur)); err != nil {
			fail(err)
		}
		return
	}
	rep, err := parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	rep.Revision = revision()
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	os.Stdout.Write(append(out, '\n'))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// samples collects one benchmark's repeats.
type samples struct {
	iters   []float64
	ns      []float64
	metrics map[string][]float64
}

// parse reads go test -bench output: the first goos, goarch and cpu
// lines fill the header, and every result line adds a sample to its
// benchmark, entries keeping the order in which names first appear.
func parse(r io.Reader) (Report, error) {
	rep := Report{Schema: "xbarsec-bench/v2"}
	byName := map[string]*samples{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		headerField(&rep.GOOS, line, "goos: ")
		headerField(&rep.GOARCH, line, "goarch: ")
		headerField(&rep.CPU, line, "cpu: ")
		name, iters, ns, metrics, ok := parseResult(line)
		if !ok {
			continue
		}
		s := byName[name]
		if s == nil {
			s = &samples{metrics: map[string][]float64{}}
			byName[name] = s
			order = append(order, name)
		}
		s.iters = append(s.iters, float64(iters))
		s.ns = append(s.ns, ns)
		for unit, v := range metrics {
			s.metrics[unit] = append(s.metrics[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	rep.Benchmarks = []Entry{}
	for _, name := range order {
		s := byName[name]
		ns := median(s.ns)
		e := Entry{
			Name:           name,
			Iters:          int64(median(s.iters)),
			NsPerOp:        ns,
			MsPerOp:        ns / 1e6,
			MinNsPerOp:     slices.Min(s.ns),
			MaxNsPerOp:     slices.Max(s.ns),
			N:              len(s.ns),
			SamplesNsPerOp: s.ns,
		}
		for unit, vs := range s.metrics {
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = median(vs)
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	return rep, nil
}

// headerField sets *dst from a header line with the given prefix, keeping
// the first value seen across concatenated runs.
func headerField(dst *string, line, prefix string) {
	if v, ok := strings.CutPrefix(line, prefix); ok && *dst == "" {
		*dst = strings.TrimSpace(v)
	}
}

// parseResult parses one result line,
// "BenchmarkName[-P] N X ns/op [value unit]...", returning the name
// without the Benchmark prefix and the GOMAXPROCS suffix, and every
// metric after ns/op keyed by its unit.
func parseResult(line string) (name string, iters int64, ns float64, metrics map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
		return "", 0, 0, nil, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, 0, nil, false
	}
	if ns, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return "", 0, 0, nil, false
	}
	name = strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	metrics = map[string]float64{}
	for j := 5; j < len(fields); j += 2 {
		if v, err := strconv.ParseFloat(fields[j-1], 64); err == nil {
			metrics[fields[j]] = v
		}
	}
	return name, iters, ns, metrics, true
}

// median returns the middle of vs, the mean of the two middle values
// for an even count.
func median(vs []float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// revision names the checkout the benchmarks ran in: the HEAD commit,
// suffixed "-dirty" when tracked files differ from it, or "" outside a
// git checkout.
func revision() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// readReport reads one BENCH_*.json file.
func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// alpha is the Welch p below which a delta is called significant.
const alpha = 0.05

// Delta compares one benchmark across two reports. P is NaN and Verdict
// "unresolved" unless both entries keep at least two samples.
type Delta struct {
	Name         string
	OldMs, NewMs float64 // median ms/op
	Ratio, P     float64 // NewMs/OldMs; Welch's two-sided p
	Verdict      string  // significant, noise or unresolved
}

// compare returns one Delta per benchmark name in both reports, in the
// new report's order.
func compare(old, cur Report) []Delta {
	byName := map[string]Entry{}
	for _, e := range old.Benchmarks {
		byName[e.Name] = e
	}
	var out []Delta
	for _, e := range cur.Benchmarks {
		o, ok := byName[e.Name]
		if !ok {
			continue
		}
		d := Delta{Name: e.Name, OldMs: o.NsPerOp / 1e6, NewMs: e.NsPerOp / 1e6,
			Ratio: e.NsPerOp / o.NsPerOp, P: math.NaN(), Verdict: "unresolved"}
		if t, err := stats.WelchTTest(o.SamplesNsPerOp, e.SamplesNsPerOp); err == nil {
			d.P, d.Verdict = t.P, "noise"
			if t.Significant(alpha) {
				d.Verdict = "significant"
			}
		}
		out = append(out, d)
	}
	return out
}

// printDeltas writes the deltas as an aligned table.
func printDeltas(w io.Writer, deltas []Delta) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ms/op\tnew ms/op\tnew/old\tp\tverdict")
	for _, d := range deltas {
		p := "-"
		if !math.IsNaN(d.P) {
			p = fmt.Sprintf("%.3g", d.P)
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.3f\t%s\t%s\n", d.Name, d.OldMs, d.NewMs, d.Ratio, p, d.Verdict)
	}
	return tw.Flush()
}
