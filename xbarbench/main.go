// Command xbarbench is the end-to-end benchmark of xbarserve. In its own
// process it boots one deployment the way cmd/xbarserve does, drives it
// with two closed-loop client SDK callers, and prints the end-to-end
// metrics of one workload (or, with -trace 1, the per-layer metrics).
// See README.md in this directory for the workloads, the metrics and
// the layer table. Build and run it from the repository root with
//
//	bash xbarbench/run.sh --workload attack-jobs --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"xbarsec/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xbarbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings of one run.
type options struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
}

// Run state and span dumps go under the build directory of run.sh,
// relative to the checkout root the benchmark runs from.
const buildDir = ".bench_build"

// untracedSetups is how many deployments an untraced run sets up;
// setup_s is their median. The traced run's passes set up once each.
const untracedSetups = 3

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("xbarbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: oracle-sessions, attack-jobs or experiment-jobs")
	seed := fl.Int64("seed", 1, "workload seed: picks test rows and spec seeds, never server config")
	seconds := fl.Float64("seconds", 16, "nominal measured seconds; fixes the op count per class")
	trace := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := os.MkdirAll(filepath.Join(buildDir, "state"), 0o755); err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	if o.trace {
		return runTraced(o, out)
	}
	return runUntraced(o, out)
}

// passResult is one pass of a workload: set-up, then its two phases.
type passResult struct {
	setups  []float64 // seconds per set-up
	phases  []phaseResult
	digest  string
	backend string
	speed   speedProbe // kernel timings before each set-up
	setupMB float64    // peak RSS at the end of the kept set-up
}

var stateSeq int

// newStateDir names a fresh state directory for one deployment.
func newStateDir(o options) string {
	stateSeq++
	return filepath.Join(buildDir, "state", fmt.Sprintf("%s-%d-%d", o.w.name, os.Getpid(), stateSeq))
}

// setUp boots one deployment and runs one untimed warm-up op per class
// per caller, timing the whole: dataset synthesis and training of both
// victims, lazy array caches and connection set-up.
func setUp(ctx context.Context, o options, durable bool, tr *tracer, p *plan) (*deployment, float64, error) {
	// The experiment victim store is process-global; every set-up starts
	// from an empty one, as a fresh process would.
	experiment.ResetVictimStore()
	dir := ""
	if durable {
		dir = newStateDir(o)
	}
	start := time.Now()
	d, err := boot(dir, tr)
	if err != nil {
		return nil, 0, err
	}
	p.w.plan(d, p) // installs the warm-up op for this deployment
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for k, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = p.warm(ctx, &caller{id: k, c: c})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return d, elapsed, nil
}

// runPass sets up the given number of deployments (keeping the last)
// and drives the workload's two phases against it. With tp set, the
// pass is traced: spans, counters around each phase and replays after.
func runPass(ctx context.Context, o options, durable bool, setups int, tp *tracedPass) (passResult, error) {
	var res passResult
	var tr *tracer
	if tp != nil {
		tr = tp.tr
	}
	p := newPlan(o.w, o.seed, o.seconds)
	var d *deployment
	for i := range setups {
		var secs float64
		var err error
		res.speed.sample(samplesPerBreak)
		d, secs, err = setUp(ctx, o, durable, tr, p)
		if err != nil {
			return res, err
		}
		res.setups = append(res.setups, secs)
		if i < setups-1 {
			if err := d.close(); err != nil {
				return res, err
			}
			// The next set-up starts from a clean heap, as a fresh process
			// would; the last one starts the peak-RSS count afresh.
			runtime.GC()
			debug.FreeOSMemory()
			if i == setups-2 {
				resetPeakRSS()
			}
		}
	}
	res.setupMB = rssPeakMB()
	defer d.close()
	v, err := d.clients[0].Version(ctx)
	if err != nil {
		return res, err
	}
	res.backend = v.TensorBackend
	cs := make([]*caller, callers)
	for k := range cs {
		cs[k] = &caller{id: k, c: d.clients[k], tr: tr}
	}
	for _, cls := range p.w.plan(d, p) {
		if tp != nil {
			tp.before(ctx, d)
		}
		var phase span
		if tr != nil {
			phase = span{ID: tr.id(), Name: "phase." + cls.name, Class: cls.name, Start: tr.now()}
			for _, c := range cs {
				c.parent = phase.ID
			}
		}
		pr := runPhase(ctx, cls, cs, true)
		if tr != nil {
			phase.End = tr.now()
			tr.record(phase)
			pr.span = phase.ID
		}
		if tp != nil {
			tp.after(ctx, d, p, cls, &pr)
		}
		res.phases = append(res.phases, pr)
	}
	res.digest = workloadDigest(o.w.name, res.phases)
	return res, d.close()
}

// e2e is the seven end-to-end metrics of one pass.
type e2e struct {
	setup, rss, opsPerS float64
	light, heavy        summary
}

// endToEnd reads the pass's metrics, raw or with every time scaled to
// the reference machine's speed: each phase by its own breaks' kernel
// timings, set-up by all of the pass's.
func endToEnd(res passResult, scaled bool) e2e {
	factor := func(p speedProbe) float64 {
		if scaled {
			return p.factor()
		}
		return 1
	}
	m := e2e{setup: medianOf(res.setups) * factor(passSpeed(res)), rss: rssPeakMB()}
	var ops float64
	var secs float64
	for _, p := range res.phases {
		f := factor(p.speed)
		ops += float64(p.attempted - p.failed)
		secs += p.wall.Seconds() * f
		lat := make([]float64, len(p.lat))
		for i, x := range p.lat {
			lat[i] = x * f
		}
		if p.class == "light" {
			m.light = summarize(lat)
		} else {
			m.heavy = summarize(lat)
		}
	}
	m.opsPerS = ratio(ops, secs)
	return m
}

// passSpeed pools every kernel timing of a pass.
func passSpeed(res passResult) speedProbe {
	all := res.speed
	for _, p := range res.phases {
		all = join(all, p.speed)
	}
	return all
}

func (m e2e) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":       {m.setup, "s"},
		"rss_peak_mb":   {m.rss, "MiB"},
		"ops_per_s":     {m.opsPerS, "1/s"},
		"light.p50_ms":  {finite(m.light.P50), "ms"},
		"light.tail_ms": {finite(m.light.Tail), "ms"},
		"heavy.p50_ms":  {finite(m.heavy.P50), "ms"},
		"heavy.tail_ms": {finite(m.heavy.Tail), "ms"},
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally folds passes into the result's correctness and op counts and
// prints every problem found.
func tally(out io.Writer, passes ...passResult) result {
	r := result{Correct: true}
	for _, pass := range passes {
		for _, p := range pass.phases {
			r.Attempted += p.attempted
			r.Failed += p.failed
			if p.failed > 0 || len(p.problems) > 0 {
				r.Correct = false
			}
			for _, msg := range p.problems {
				fmt.Fprintln(out, "# problem:", msg)
			}
		}
	}
	return r
}

func runUntraced(o options, out io.Writer) error {
	ctx := context.Background()
	res, err := runPass(ctx, o, true, untracedSetups, nil)
	if err != nil {
		return err
	}
	printHeader(out, o, res)
	m := endToEnd(res, true)
	printE2E(out, "", res, m)
	fmt.Fprintf(out, "digest %s %s\n", o.w.name, res.digest)
	r := tally(out, res)
	r.Metrics = m.metrics()
	return printResult(out, r)
}

func printResult(out io.Writer, r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printHeader prints the run header: the machine, the toolchain, the
// code revision, the backend the server reports, the seed and the ops.
func printHeader(out io.Writer, o options, res passResult) {
	rev, modified := "none (not a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = " (modified)"
				}
			}
		}
	}
	fmt.Fprintf(out, "# xbarbench workload=%s seed=%d seconds=%g trace=%v\n", o.w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "# machine nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Fprintf(out, "# code git=%s%s src_sha256=%s tensor_backend=%s\n", rev, modified, sourceDigest(), res.backend)
	for _, p := range res.phases {
		fmt.Fprintf(out, "# ops %s (%s): %d per caller x %d callers\n", p.class, p.op, p.attempted/callers, callers)
	}
}

// printE2E prints a pass's metrics at reference speed, with the raw
// figures and the speed factors beside them.
func printE2E(out io.Writer, prefix string, res passResult, m e2e) {
	raw := endToEnd(res, false)
	fmt.Fprintf(out, "%ssetup_s %.4f (raw median of %d: %s; speed factor %.4f)\n",
		prefix, m.setup, len(res.setups), floats(res.setups, "%.3f"), passSpeed(res).factor())
	for _, p := range res.phases {
		s, r := m.light, raw.light
		if p.class == "heavy" {
			s, r = m.heavy, raw.heavy
		}
		fmt.Fprintf(out, "%s%s: attempted %d succeeded %d failed %d in %.2f s; p50 %.4f ms, tail %.4f ms (p%.2f, n=%d); raw p50 %.4f ms, tail %.4f ms; speed factor %.4f\n",
			prefix, p.class, p.attempted, p.attempted-p.failed, p.failed, p.wall.Seconds(), s.P50, s.Tail, s.TailPct, s.N, r.P50, r.Tail, p.speed.factor())
	}
	fmt.Fprintf(out, "%sops_per_s %.3f (raw %.3f)\n", prefix, m.opsPerS, raw.opsPerS)
	fmt.Fprintf(out, "%srss_peak_mb %.1f (%.1f after set-up%s)\n", prefix, m.rss, res.setupMB, phaseRSS(res))
	fmt.Fprintf(out, "%skernel ms: set-up %s", prefix, floats(res.speed.samples, "%.2f"))
	for _, p := range res.phases {
		fmt.Fprintf(out, "; %s %s", p.class, floats(p.speed.samples, "%.2f"))
	}
	fmt.Fprintln(out)
}

func phaseRSS(res passResult) string {
	var b strings.Builder
	for _, p := range res.phases {
		fmt.Fprintf(&b, ", %.1f after %s", p.rssMB, p.class)
	}
	return b.String()
}

func floats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) at the
// current RSS. Where the kernel refuses, the peak covers every set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod (vendor/ and
// this benchmark excluded), naming the code under test even where the
// checkout carries no git metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			switch e.Name() {
			case "vendor", "xbarbench", ".git", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || e.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			putS(h, filepath.ToSlash(path))
			putS(h, string(data))
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
