package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"time"

	"xbarsec/api"
	"xbarsec/internal/attack"
	"xbarsec/internal/dataset"
	"xbarsec/internal/experiment"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/service"
	"xbarsec/internal/surrogate"
	"xbarsec/internal/tensor"
)

// layerMetric is one per-layer metric of the traced run, as declared in
// BENCHMARK.json.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics lists every per-layer metric in report order. The
// traced run prints each of them on every workload; a layer that does
// no work in a workload's live phases is still replayed there on the
// phase's victim, so its figure is that layer's standalone cost.
var layerMetrics = []layerMetric{
	{"client.self_ms.light", "ms", "lower"},
	{"client.self_ms.heavy", "ms", "lower"},
	{"api.encode_ms.heavy", "ms", "lower"},
	{"api.decode_ms.heavy", "ms", "lower"},
	{"wire.req_kb.light", "KiB", "lower"},
	{"wire.req_kb.heavy", "KiB", "lower"},
	{"wire.resp_kb.light", "KiB", "lower"},
	{"wire.resp_kb.heavy", "KiB", "lower"},
	{"http.overhead_ms.light", "ms", "lower"},
	{"http.overhead_ms.heavy", "ms", "lower"},
	{"http.non2xx", "count", "lower"},
	{"service.handler_ms.light", "ms", "lower"},
	{"service.handler_ms.heavy", "ms", "lower"},
	{"service.queries_per_flush.light", "ratio", "higher"},
	{"service.queries_per_flush.heavy", "ratio", "higher"},
	{"service.max_batch", "count", "higher"},
	{"service.queue_depth_peak", "count", "lower"},
	{"service.sessions_opened", "count", "lower"},
	{"oracle.charged_per_delivered", "ratio", "lower"},
	{"oracle.collect_ms.heavy", "ms", "lower"},
	{"crossbar.fwdpower_us.light", "us", "lower"},
	{"crossbar.fwdpower_us.heavy", "us", "lower"},
	{"crossbar.predict_ms.heavy", "ms", "lower"},
	{"sidechannel.extract_ms.light", "ms", "lower"},
	{"surrogate.train_ms.heavy", "ms", "lower"},
	{"attack.fgsm_ms.heavy", "ms", "lower"},
	{"dataset.synth_ms.mnist", "ms", "lower"},
	{"dataset.synth_ms.cifar10", "ms", "lower"},
	{"service.train_victim_ms.mnist", "ms", "lower"},
	{"service.train_victim_ms.cifar10", "ms", "lower"},
	{"experiment.run_cold_ms.heavy", "ms", "lower"},
	{"experiment.run_warm_ms.heavy", "ms", "lower"},
	{"experiment.trainings_per_op.heavy", "ratio", "lower"},
	{"experiment.store_mb", "MiB", "lower"},
	{"service.cache_hit_ratio.light", "ratio", "higher"},
	{"service.cache_hit_ratio.heavy", "ratio", "higher"},
	{"service.cache_lookups.light", "count", "lower"},
	{"service.cache_lookups.heavy", "count", "lower"},
	{"durable.overhead_ms.light", "ms", "lower"},
	{"durable.overhead_ms.heavy", "ms", "lower"},
	{"service.spilled_kb_per_op.light", "KiB", "lower"},
	{"service.spilled_kb_per_op.heavy", "KiB", "lower"},
	{"service.state_kb_per_op.light", "KiB", "lower"},
	{"service.state_kb_per_op.heavy", "KiB", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.alloc_kb_per_op.light", "KiB", "lower"},
	{"runtime.alloc_kb_per_op.heavy", "KiB", "lower"},
	{"trace.overhead_pct.light", "%", "lower"},
	{"trace.overhead_pct.heavy", "%", "lower"},
}

// counters is a snapshot of the public counters a phase is read from.
type counters struct {
	stats      api.Stats
	store      experiment.VictimStoreStats
	stateBytes int64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func readCounters(ctx context.Context, d *deployment) (counters, error) {
	st, err := d.clients[0].Stats(ctx)
	if err != nil {
		return counters{}, err
	}
	rt := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(rt)
	c := counters{stats: st, store: experiment.StoreStats(), allocBytes: rt[0].Value.Uint64(),
		gcCPU: rt[1].Value.Float64(), totalCPU: rt[2].Value.Float64()}
	if d.stateDir != "" {
		c.stateBytes = dirBytes(d.stateDir)
	}
	return c, nil
}

// tracedPass collects the per-layer metrics of the traced pass: counter
// deltas over each phase, span breakdowns, and replays of each phase's
// inputs through the deeper layers once the phase has finished.
type tracedPass struct {
	tr    *tracer
	start counters
	err   error

	values             map[string]float64
	notes              []string
	charged, delivered int64
	sessions           int64
	gcCPU, totalCPU    float64
}

func (t *tracedPass) set(name string, v float64) { t.values[name] = v }

func (t *tracedPass) fail(err error) {
	if t.err == nil && err != nil {
		t.err = err
	}
}

// before snapshots the counters a phase's deltas are taken from.
func (t *tracedPass) before(ctx context.Context, d *deployment) {
	c, err := readCounters(ctx, d)
	t.fail(err)
	t.start = c
}

// after reads the phase's counter deltas and span breakdown, then
// replays the phase's inputs.
func (t *tracedPass) after(ctx context.Context, d *deployment, p *plan, cls *class, res *phaseResult) {
	end, err := readCounters(ctx, d)
	if err != nil {
		t.fail(err)
		return
	}
	c, s := cls.name, t.start
	ops := float64(res.attempted)
	b := breakdown(t.tr.snapshot(), c)
	t.set("client.self_ms."+c, medianOf(b.clientSelf))
	t.set("http.overhead_ms."+c, medianOf(b.httpOverhead))
	t.set("service.handler_ms."+c, medianOf(b.handler))
	t.set("wire.req_kb."+c, medianOf(b.reqBytes)/1024)
	t.set("wire.resp_kb."+c, medianOf(b.respBytes)/1024)

	dq := end.stats.BatchedQueries - s.stats.BatchedQueries
	df := end.stats.BatchFlushes - s.stats.BatchFlushes
	t.set("service.queries_per_flush."+c, ratio(float64(dq), float64(df)))
	hits := end.stats.CacheHits - s.stats.CacheHits
	lookups := hits + end.stats.CacheMisses - s.stats.CacheMisses
	t.set("service.cache_hit_ratio."+c, ratio(float64(hits), float64(lookups)))
	t.set("service.cache_lookups."+c, float64(lookups))
	t.set("service.spilled_kb_per_op."+c, float64(end.stats.SpilledArtifactBytes-s.stats.SpilledArtifactBytes)/1024/ops)
	t.set("service.state_kb_per_op."+c, float64(end.stateBytes-s.stateBytes)/1024/ops)
	t.set("runtime.alloc_kb_per_op."+c, float64(end.allocBytes-s.allocBytes)/1024/ops)
	t.set("service.max_batch", float64(end.stats.MaxBatch))
	t.set("service.queue_depth_peak", float64(end.stats.QueueDepthPeak))
	// The engine replay empties the victim store after a heavy phase, so
	// the store's size is the largest seen at the end of a phase.
	t.set("experiment.store_mb", max(t.values["experiment.store_mb"], float64(end.store.Bytes)/(1<<20)))
	if c == "heavy" {
		t.set("experiment.trainings_per_op.heavy", float64(end.store.Trainings-s.store.Trainings)/ops)
	}
	t.gcCPU += end.gcCPU - s.gcCPU
	t.totalCPU += end.totalCPU - s.totalCPU
	t.charged += res.acct.charged
	t.delivered += res.acct.delivered
	t.sessions += res.acct.sessionsOpened
	t.notes = append(t.notes, fmt.Sprintf("%s: %d queries in %d flushes, %d cache lookups (%d hits), %d failed jobs",
		c, dq, df, lookups, hits, end.stats.FailedJobs-s.stats.FailedJobs))

	t.fail(t.replayPhase(d, p, c, res.span))
}

// replay times reps runs of f under replay.<name> spans hung off the
// phase span and returns the median run.
func (t *tracedPass) replay(parent int64, name string, reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for range reps {
		s := span{ID: t.tr.id(), Parent: parent, Name: "replay." + name, Start: t.tr.now()}
		err := f()
		s.End = t.tr.now()
		t.tr.record(s)
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", name, err)
		}
		ds = append(ds, float64(s.dur()))
	}
	return time.Duration(medianOf(ds)), nil
}

// replayPhase runs the phase's own inputs again, uncontended, through
// the public functions of the layers under the service.
func (t *tracedPass) replayPhase(d *deployment, p *plan, c string, parent int64) error {
	in := p.replayRows[c]
	v := d.victim(in.victim)
	src := rng.New(in.seed).Split("campaign").Split(v.Name())
	q := campaignQueries
	if in.victim == "cifar10" {
		q = heavyBatch
	}
	var qs *oracle.QuerySet
	var model *surrogate.Model
	var advs [][]float64
	rows := in.rows
	var err error
	step := func(name string, reps int, f func() error) {
		if err != nil {
			return
		}
		var dur time.Duration
		dur, err = t.replay(parent, name, reps, f)
		t.set(name, ms(dur))
	}
	if c == "light" {
		step("sidechannel.extract_ms.light", 3, func() error {
			_, err := replayExtract(v, in.seed)
			return err
		})
	} else {
		step("oracle.collect_ms.heavy", 3, func() (err error) {
			orc, err := oracle.New(v.Hardware(), oracle.Config{Mode: oracle.RawOutput, MeasurePower: true, Budget: q})
			if err == nil {
				qs, err = oracle.Collect(orc, v.Train(), q, src.Split("collect"))
			}
			return err
		})
		if rows == nil && qs != nil {
			rows = matrixRows(qs.U)
		}
		step("surrogate.train_ms.heavy", 3, func() (err error) {
			cfg := surrogate.DefaultConfig()
			cfg.Lambda = campaignLambda
			model, err = surrogate.Train(qs, cfg, src.Split("surrogate"))
			return err
		})
		step("attack.fgsm_ms.heavy", 3, func() error {
			oh := v.Test().OneHot()
			advs = make([][]float64, v.Test().Len())
			for i := range advs {
				adv, err := attack.FGSM(model.Net, tensor.CloneVec(v.Test().X.Row(i)), oh.Row(i), 0.1)
				if err != nil {
					return err
				}
				advs[i] = adv
			}
			return nil
		})
		step("crossbar.predict_ms.heavy", 5, func() error {
			_, err := v.Hardware().PredictBatch(advs)
			return err
		})
		step("api.encode_ms.heavy", 5, func() error {
			for _, x := range []any{p.heavyInputs(), p.heavyResponse()} {
				if _, err := json.Marshal(x); err != nil {
					return err
				}
			}
			return nil
		})
		bodies := [][]byte{}
		for _, x := range []any{p.heavyInputs(), p.heavyResponse()} {
			data, merr := json.Marshal(x)
			if merr != nil {
				return merr
			}
			bodies = append(bodies, data)
		}
		step("api.decode_ms.heavy", 5, func() error {
			for i, x := range []any{p.heavyInputs(), p.heavyResponse()} {
				fresh := reflect.New(reflect.TypeOf(x)).Interface()
				if err := json.Unmarshal(bodies[i], fresh); err != nil {
					return err
				}
			}
			return nil
		})
		// The engine replay needs an empty victim store for its cold run;
		// the store's size was read before this replay.
		spec := engine.Options{Seed: in.seed, Scale: experimentScale, Runs: 1}
		exp, ok := engine.Lookup(experimentName)
		if !ok {
			return fmt.Errorf("no %s in the experiment registry", experimentName)
		}
		experiment.ResetVictimStore()
		step("experiment.run_cold_ms.heavy", 1, func() error { _, err := exp.Run(spec); return err })
		step("experiment.run_warm_ms.heavy", 3, func() error { _, err := exp.Run(spec); return err })
	}
	if err != nil {
		return err
	}
	fp, err := t.replay(parent, "crossbar.fwdpower", 9, func() error {
		_, _, err := v.Hardware().ForwardPowerBatch(rows)
		return err
	})
	t.set("crossbar.fwdpower_us."+c, float64(fp)/float64(time.Microsecond))
	return err
}

func matrixRows(m *tensor.Matrix) [][]float64 {
	rows := make([][]float64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// replaySetup times dataset synthesis and victim training for both
// demo victims, the work every set-up repeats.
func (t *tracedPass) replaySetup() error {
	parent := span{ID: t.tr.id(), Name: "setup.replay", Start: t.tr.now()}
	defer func() { parent.End = t.tr.now(); t.tr.record(parent) }()
	for _, spec := range victimSpecs {
		d, err := t.replay(parent.ID, "dataset.synth_ms."+spec.Name, 1, func() error {
			_, _, err := dataset.Load(spec.Kind, rng.New(spec.Seed).Split("victim:"+spec.Name).Split("data"),
				dataset.LoadOptions{TrainN: spec.TrainN, TestN: spec.TestN})
			return err
		})
		if err != nil {
			return err
		}
		t.set("dataset.synth_ms."+spec.Name, ms(d))
		d, err = t.replay(parent.ID, "service.train_victim_ms."+spec.Name, 1, func() error {
			_, err := service.TrainVictim(spec)
			return err
		})
		if err != nil {
			return err
		}
		t.set("service.train_victim_ms."+spec.Name, ms(d))
	}
	return nil
}

// runTraced is the traced run: an untraced durable pass (the baseline
// for the tracing overhead), the traced durable pass with counters and
// replays, and the memory-only twin of the same phases (the baseline
// for the durable-state overhead). All three must print one digest.
func runTraced(o options, out io.Writer) error {
	ctx := context.Background()
	plain, err := runPass(ctx, o, true, 1, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	tp := &tracedPass{tr: tr, values: map[string]float64{}}
	traced, err := runPass(ctx, o, true, 1, tp)
	if err == nil {
		err = tp.err
	}
	if err == nil {
		err = tp.replaySetup()
	}
	if err != nil {
		return err
	}
	tp.set("http.non2xx", float64(tr.non2xx.Load()))
	tp.set("service.sessions_opened", float64(tp.sessions))
	tp.set("oracle.charged_per_delivered", ratio(float64(tp.charged), float64(tp.delivered)))
	tp.set("runtime.gc_cpu_fraction", ratio(tp.gcCPU, tp.totalCPU))
	twin, err := runPass(ctx, o, false, 1, nil)
	if err != nil {
		return err
	}

	// Per-layer times are scaled like the end-to-end ones, by the traced
	// pass's speed factor; durable.overhead_ms below comes from
	// end-to-end figures that are scaled already.
	f := passSpeed(traced).factor()
	for _, lm := range layerMetrics {
		if lm.unit == "ms" || lm.unit == "us" {
			tp.values[lm.name] *= f
		}
	}
	printHeader(out, o, plain)
	mPlain, mTraced, mTwin := endToEnd(plain, true), endToEnd(traced, true), endToEnd(twin, true)
	printE2E(out, "untraced ", plain, mPlain)
	printE2E(out, "traced ", traced, mTraced)
	printE2E(out, "memory-only ", twin, mTwin)
	for _, c := range []struct {
		name          string
		plain, traced summary
		twin          summary
	}{{"light", mPlain.light, mTraced.light, mTwin.light}, {"heavy", mPlain.heavy, mTraced.heavy, mTwin.heavy}} {
		tp.set("trace.overhead_pct."+c.name, 100*(c.traced.P50-c.plain.P50)/c.plain.P50)
		tp.set("durable.overhead_ms."+c.name, c.plain.P50-c.twin.P50)
	}
	r := tally(out, plain, traced, twin)
	for _, pass := range []struct {
		name string
		res  passResult
	}{{"untraced", plain}, {"traced", traced}, {"memory-only", twin}} {
		fmt.Fprintf(out, "digest %s %s (%s)\n", o.w.name, pass.res.digest, pass.name)
		if pass.res.digest != plain.digest {
			fmt.Fprintf(out, "# problem: the %s pass printed another digest\n", pass.name)
			r.Correct = false
		}
	}
	for _, n := range tp.notes {
		fmt.Fprintln(out, "counters", n)
	}
	fmt.Fprintf(out, "oracle charged %d for %d delivered; %d sessions opened; %d non-2xx (one budget_exhausted probe per session)\n",
		tp.charged, tp.delivered, tp.sessions, tr.non2xx.Load())
	fmt.Fprintf(out, "per-layer times scaled by the traced pass's speed factor %.4f\n", f)
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.w.name, o.seed))
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.snapshot()), path)

	r.Metrics = map[string]metric{}
	for _, lm := range layerMetrics {
		v, ok := tp.values[lm.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		r.Metrics[lm.name] = metric{finite(v), lm.unit}
	}
	for _, lm := range layerMetrics {
		fmt.Fprintf(out, "layer %-34s %14.4f %s\n", lm.name, tp.values[lm.name], lm.unit)
	}
	return printResult(out, r)
}
