package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/rng"
	"xbarsec/internal/service"
	"xbarsec/internal/sidechannel"
	"xbarsec/internal/tensor"
)

// Op shapes fixed by the workload definitions.
const (
	lightSessionQueries = 500 // oracle-sessions: queries per light session
	heavyBatch          = 64  // oracle-sessions: rows per QueryBatch
	heavySessionBatches = 16  // oracle-sessions: batches per heavy session
	campaignQueries     = 200
	campaignLambda      = 0.004
	extractNoise        = 0.01
	experimentName      = "ablate-noise"
	experimentScale     = 0.05
	verifySample        = 24 // replies per caller checked bit-for-bit after a phase
)

// workload is one traffic mix: two homogeneous classes run as separate
// phases, in order.
type workload struct {
	name, why string
	// Nominal ops per second per caller of each class on the reference
	// machine (2 cores), and the share of --seconds the light phase gets.
	// They fix the op counts from --seconds, so the work done, and the
	// state it leaves behind, never depends on how fast the program runs.
	lightRate, heavyRate float64
	lightShare           float64
	// Op counts per caller are rounded up to these multiples.
	lightMult, heavyMult int
	// plan builds the workload's classes against a deployment, in run
	// order, and installs the plan's warm-up op and replay inputs.
	plan func(d *deployment, p *plan) []*class
}

// plan is one pass of a workload against one deployment.
type plan struct {
	w             *workload
	seed          int64
	light, heavy  int // ops per caller
	warm          func(ctx context.Context, c *caller) error
	heavyInputs   func() any // one heavy op's request, for the codec replay
	heavyResponse func() any // one heavy op's decoded response
	replayRows    map[string]replayInput
}

// replayInput is what one op of a class fed the deeper layers.
type replayInput struct {
	victim string
	rows   [][]float64
	seed   int64 // the op's spec seed, when it has one
}

// ungated names the workload BENCHMARK.json leaves out: its light
// class waits on one journal fsync per op, and the tail of the host
// disk's fsync stalls spreads by 30-50% between runs, beyond any bound
// a gate may set. It still runs by hand, traced or not.
const ungated = "experiment-jobs"

var workloads = []*workload{
	{
		name:      "oracle-sessions",
		why:       "interactive attacker sessions: per-request HTTP, JSON, session and coalescer cost (light) and the 3.3 MB JSON batch path (heavy)",
		lightRate: 1650, heavyRate: 7.7, lightShare: 0.06,
		lightMult: lightSessionQueries, heavyMult: heavySessionBatches,
		plan: planOracleSessions,
	},
	{
		name:      "attack-jobs",
		why:       "the paper's two attacks as durable jobs: coalesced power probing plus journal and spill (light), surrogate training and FGSM compute (heavy)",
		lightRate: 42, heavyRate: 4.2, lightShare: 0.25,
		lightMult: 1, heavyMult: 1,
		plan: planAttackJobs,
	},
	{
		name:      "experiment-jobs",
		why:       "cold ablate-noise jobs through every engine stage (heavy) and cached re-launches through the journaled launch path (light)",
		lightRate: 2700, heavyRate: 3.7, lightShare: 0.025,
		lightMult: 1, heavyMult: 1,
		plan: planExperimentJobs,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// newPlan sizes a pass from the run's seconds at the workload's
// nominal rates. The light phase gets a small share: its sub-ms ops
// reach a steady median within a few thousand samples. The count also
// places the light tail (rank n-10): host preemptions delay a sub-ms
// op by one 4 ms scheduler tick often enough to fill the last ten
// samples of a few thousand, and by two ticks too rarely to reach them.
func newPlan(w *workload, seed int64, seconds float64) *plan {
	count := func(secs, rate float64, mult int) int {
		n := int(math.Ceil(secs * rate))
		n = max(n, 24) // enough samples for a tail on two callers
		return (n + mult - 1) / mult * mult
	}
	return &plan{w: w, seed: seed,
		light:      count(seconds*w.lightShare, w.lightRate, w.lightMult),
		heavy:      count(seconds*(1-w.lightShare), w.heavyRate, w.heavyMult),
		replayRows: map[string]replayInput{}}
}

// opSeed derives a distinct positive spec seed for op i of a caller.
func opSeed(seed int64, tag string, caller, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	x := splitmix(uint64(seed))
	for _, v := range []uint64{h.Sum64(), uint64(caller), uint64(int64(i))} {
		x = splitmix(x ^ v)
	}
	return int64(x >> 2)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// picker is a seeded stream of row indices for one caller and class.
func picker(seed int64, tag string, caller int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(opSeed(seed, tag, caller, -1)), uint64(caller)))
}

// sampled reports whether op i of n is in the seeded verify sample.
func sampleSet(seed int64, tag string, caller, n int) map[int]bool {
	r := picker(seed, "sample/"+tag, caller)
	out := map[int]bool{}
	for _, i := range r.Perm(n)[:min(verifySample, n)] {
		out[i] = true
	}
	return out
}

func rowsOf(v *service.Victim, idx []int) [][]float64 {
	rows := make([][]float64, len(idx))
	for i, j := range idx {
		rows[i] = v.Test().X.Row(j)
	}
	return rows
}

// keptReply is one sampled query reply with the row it answered.
type keptReply struct {
	row   []float64
	label int
	raw   []float64
	power float64
}

// verifyReplies recomputes kept replies with Hardware().ForwardPowerBatch
// on the same rows and demands bit-identical outputs and power.
func verifyReplies(v *service.Victim, kept []keptReply) error {
	if len(kept) == 0 {
		return nil
	}
	rows := make([][]float64, len(kept))
	for i, k := range kept {
		rows[i] = k.row
	}
	ys, ps, err := v.Hardware().ForwardPowerBatch(rows)
	if err != nil {
		return err
	}
	xb := v.Hardware().Crossbar()
	norm := xb.Config().Vdd * xb.Config().Vdd * xb.Scale()
	for i, k := range kept {
		if !sameBits(ys[i], k.raw) || math.Float64bits(ps[i]/norm) != math.Float64bits(k.power) || argmax(ys[i]) != k.label {
			return fmt.Errorf("reply %d differs from ForwardPowerBatch on the same row", i)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkOutcome validates one query reply's shape.
func checkOutcome(label int, raw []float64, power float64, outputs int) error {
	switch {
	case label < 0 || label >= outputs:
		return fmt.Errorf("label %d outside [0,%d)", label, outputs)
	case len(raw) != outputs || !allFinite(raw):
		return fmt.Errorf("raw output of length %d, want %d finite values", len(raw), outputs)
	case argmax(raw) != label:
		return fmt.Errorf("label %d is not the argmax of the raw output", label)
	case !(power > 0) || math.IsInf(power, 0):
		return fmt.Errorf("power %v not positive and finite", power)
	}
	return nil
}

// endSession spends one query past a session's budget, which must be
// refused without charging, adds the session's charged queries to the
// caller's accounting and closes the session.
func endSession(ctx context.Context, c *caller, s *client.Session, row []float64, budget int) error {
	_, err := s.Query(ctx, row)
	if api.CodeOf(err) != api.CodeBudgetExhausted {
		return c.checkf("query past the budget: got %v, want %s", err, api.CodeBudgetExhausted)
	}
	info, err := s.Refresh(ctx)
	if err != nil {
		return err
	}
	if info.Queries != budget {
		return c.checkf("session charged %d queries, want %d", info.Queries, budget)
	}
	c.acct.charged += int64(info.Queries)
	return s.Close(ctx)
}

func openSession(ctx context.Context, c *caller, victim string, budget int) (*client.Session, error) {
	s, err := c.c.OpenSession(ctx, api.OpenSessionRequest{
		Victim: victim, Mode: api.ModeRawOutput, MeasurePower: true, Budget: budget,
	})
	if err == nil {
		c.acct.sessionsOpened++
	}
	return s, err
}

// planOracleSessions: light = Session.Query on mnist (sessions of 500
// queries), heavy = Session.QueryBatch of 64 cifar10 rows (sessions of
// 16 batches). Inputs are seeded picks of each victim's test rows.
func planOracleSessions(d *deployment, p *plan) []*class {
	mnist, cifar := d.victim("mnist"), d.victim("cifar10")
	lightSess := make([]*client.Session, callers)
	heavySess := make([]*client.Session, callers)
	lightKept := make([][]keptReply, callers)
	heavyKept := make([][]keptReply, callers)
	var lastBatch api.QueryBatchRequest
	var lastResp api.QueryBatchResponse

	lightRow := func(k, i int) []float64 {
		return mnist.Test().X.Row(int(opSeed(p.seed, "light-row", k, i) % int64(mnist.Test().Len())))
	}
	heavyRows := func(k, i int) [][]float64 {
		r := rand.New(rand.NewPCG(uint64(opSeed(p.seed, "heavy-rows", k, i)), 1))
		return rowsOf(cifar, r.Perm(cifar.Test().Len())[:heavyBatch])
	}
	lightSample := make([]map[int]bool, callers)
	heavySample := make([]map[int]bool, callers)
	for k := range callers {
		lightSample[k] = sampleSet(p.seed, "light", k, p.light)
		heavySample[k] = sampleSet(p.seed, "heavy", k, p.heavy)
	}
	p.replayRows["light"] = replayInput{victim: "mnist", rows: [][]float64{lightRow(0, 0)}, seed: opSeed(p.seed, "light-row", 0, 0)}
	p.replayRows["heavy"] = replayInput{victim: "cifar10", rows: heavyRows(0, 0), seed: opSeed(p.seed, "heavy-rows", 0, 0)}
	p.heavyInputs = func() any { return lastBatch }
	p.heavyResponse = func() any { return lastResp }

	p.warm = func(ctx context.Context, c *caller) error {
		s, err := c.c.OpenSession(ctx, api.OpenSessionRequest{Victim: "mnist", Mode: api.ModeRawOutput, MeasurePower: true, Budget: 1})
		if err != nil {
			return err
		}
		if _, err := s.Query(ctx, lightRow(c.id, -1)); err != nil {
			return err
		}
		if err := s.Close(ctx); err != nil {
			return err
		}
		s, err = c.c.OpenSession(ctx, api.OpenSessionRequest{Victim: "cifar10", Mode: api.ModeRawOutput, MeasurePower: true, Budget: heavyBatch})
		if err != nil {
			return err
		}
		if _, err := s.QueryBatch(ctx, heavyRows(c.id, -1)); err != nil {
			return err
		}
		return s.Close(ctx)
	}

	light := &class{
		name: "light", op: "Session.Query mnist (raw output + power), 500 per session", perCaller: p.light,
		run: func(ctx context.Context, c *caller, i int) (time.Duration, error) {
			k := c.id
			if i%lightSessionQueries == 0 {
				s, err := openSession(ctx, c, "mnist", lightSessionQueries)
				if err != nil {
					return 0, err
				}
				lightSess[k] = s
			}
			s, row := lightSess[k], lightRow(k, i)
			var resp api.QueryResponse
			dur, err := c.call(ctx, "Session.Query", func(ctx context.Context) (err error) {
				resp, err = s.Query(ctx, row)
				return err
			})
			if err == nil {
				err = checkOutcome(resp.Label, resp.Raw, resp.Power, mnist.Outputs())
				if n := i%lightSessionQueries + 1; err == nil && (resp.Queries != n || resp.Remaining != lightSessionQueries-n) {
					err = fmt.Errorf("session accounting %d/%d after %d queries", resp.Queries, resp.Remaining, n)
				}
				if err != nil {
					err = c.checkf("op %d: %v", i, err)
				}
			}
			if err == nil {
				c.acct.delivered++
				h := c.digest
				putU(h, uint64(resp.Label))
				putFs(h, resp.Raw)
				putF(h, resp.Power)
				putU(h, uint64(resp.Queries))
				putU(h, uint64(resp.Remaining))
				if lightSample[k][i] {
					lightKept[k] = append(lightKept[k], keptReply{row: row, label: resp.Label, raw: resp.Raw, power: resp.Power})
				}
			}
			if i%lightSessionQueries == lightSessionQueries-1 {
				if cerr := endSession(ctx, c, s, row, lightSessionQueries); err == nil {
					err = cerr
				}
			}
			return dur, err
		},
		verify: func() error { return verifyReplies(mnist, concat(lightKept)) },
	}
	heavy := &class{
		name: "heavy", op: "Session.QueryBatch of 64 cifar10 rows, 16 per session", perCaller: p.heavy,
		run: func(ctx context.Context, c *caller, i int) (time.Duration, error) {
			k := c.id
			if i%heavySessionBatches == 0 {
				s, err := openSession(ctx, c, "cifar10", heavyBatch*heavySessionBatches)
				if err != nil {
					return 0, err
				}
				heavySess[k] = s
			}
			s, rows := heavySess[k], heavyRows(k, i)
			var resp api.QueryBatchResponse
			dur, err := c.call(ctx, "Session.QueryBatch", func(ctx context.Context) (err error) {
				resp, err = s.QueryBatch(ctx, rows)
				return err
			})
			if err == nil {
				err = checkBatch(resp, rows, cifar.Outputs(), (i%heavySessionBatches+1)*heavyBatch)
				if err != nil {
					err = c.checkf("op %d: %v", i, err)
				}
			}
			if err == nil {
				c.acct.delivered += int64(len(resp.Results))
				h := c.digest
				for j, o := range resp.Results {
					putU(h, uint64(o.Label))
					putFs(h, o.Raw)
					putF(h, o.Power)
					if heavySample[k][i] && j < 2 {
						heavyKept[k] = append(heavyKept[k], keptReply{row: rows[j], label: o.Label, raw: o.Raw, power: o.Power})
					}
				}
				putU(h, uint64(resp.Queries))
				putU(h, uint64(resp.Remaining))
				if k == 0 {
					lastBatch, lastResp = api.QueryBatchRequest{Inputs: rows}, resp
				}
			}
			if i%heavySessionBatches == heavySessionBatches-1 {
				if cerr := endSession(ctx, c, s, rows[0], heavyBatch*heavySessionBatches); err == nil {
					err = cerr
				}
			}
			return dur, err
		},
		verify: func() error { return verifyReplies(cifar, concat(heavyKept)) },
	}
	return []*class{light, heavy}
}

func checkBatch(resp api.QueryBatchResponse, rows [][]float64, outputs, charged int) error {
	if len(resp.Results) != len(rows) {
		return fmt.Errorf("%d outcomes for %d rows", len(resp.Results), len(rows))
	}
	for j, o := range resp.Results {
		if o.Error != nil {
			return fmt.Errorf("outcome %d not served: %v", j, o.Error)
		}
		if err := checkOutcome(o.Label, o.Raw, o.Power, outputs); err != nil {
			return fmt.Errorf("outcome %d: %w", j, err)
		}
	}
	if resp.Queries != charged {
		return fmt.Errorf("session charged %d queries, want %d", resp.Queries, charged)
	}
	return nil
}

func concat[T any](xs [][]T) []T {
	var out []T
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}

// powerMeter reads power straight from the victim's crossbar network,
// for replaying an extraction outside the service.
type powerMeter struct{ v *service.Victim }

func (m powerMeter) Power(u []float64) (float64, error) {
	_, ps, err := m.v.Hardware().ForwardPowerBatch([][]float64{u})
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}
func (m powerMeter) Inputs() int { return m.v.Inputs() }

// replayExtract runs the extraction a RunExtract spec describes through
// sidechannel.NewProbe on the victim's own hardware.
func replayExtract(v *service.Victim, seed int64) ([]float64, error) {
	probe, err := sidechannel.NewProbe(powerMeter{v}, extractNoise, rng.New(seed).Split("extract").Split(v.Name()))
	if err != nil {
		return nil, err
	}
	return probe.ExtractColumnSignals(1)
}

// planAttackJobs: light = RunExtract on mnist with instrument noise and
// a fresh seed per op, heavy = RunCampaign on mnist (raw output, 200
// queries, λ 0.004) with a fresh seed per op.
func planAttackJobs(d *deployment, p *plan) []*class {
	mnist := d.victim("mnist")
	type keptExtract struct {
		seed    int64
		signals []float64
	}
	kept := make([][]keptExtract, callers)
	samples := make([]map[int]bool, callers)
	for k := range callers {
		samples[k] = sampleSet(p.seed, "extract", k, p.light)
	}
	var lastReq api.CampaignRequest
	var lastResp api.CampaignResult
	campaign := func(seed int64) api.CampaignRequest {
		return api.CampaignRequest{Victim: "mnist", Mode: api.ModeRawOutput, Seed: seed, Queries: campaignQueries, Lambda: campaignLambda}
	}
	extract := func(seed int64) api.ExtractRequest {
		return api.ExtractRequest{Victim: "mnist", NoiseStd: extractNoise, Seed: seed}
	}
	basis := make([][]float64, mnist.Inputs())
	for j := range basis {
		basis[j] = tensor.Basis(len(basis), j, 1)
	}
	// One extraction drives the crossbar with every basis vector; one
	// campaign with the rows its collection draws (replay fills them in).
	p.replayRows["light"] = replayInput{victim: "mnist", rows: basis, seed: opSeed(p.seed, "extract", 0, 0)}
	p.replayRows["heavy"] = replayInput{victim: "mnist", seed: opSeed(p.seed, "campaign", 0, 0)}
	p.heavyInputs = func() any { return lastReq }
	p.heavyResponse = func() any { return lastResp }
	p.warm = func(ctx context.Context, c *caller) error {
		if _, err := c.c.RunExtract(ctx, extract(opSeed(p.seed, "warm-extract", c.id, 0))); err != nil {
			return err
		}
		_, err := c.c.RunCampaign(ctx, campaign(opSeed(p.seed, "warm-campaign", c.id, 0)))
		return err
	}
	light := &class{
		name: "light", op: "RunExtract mnist, noise_std 0.01, fresh seed", perCaller: p.light,
		run: func(ctx context.Context, c *caller, i int) (time.Duration, error) {
			seed := opSeed(p.seed, "extract", c.id, i)
			var res *api.ExtractResult
			dur, err := c.call(ctx, "RunExtract", func(ctx context.Context) (err error) {
				res, err = c.c.RunExtract(ctx, extract(seed))
				return err
			})
			if err != nil {
				return dur, err
			}
			n := mnist.Inputs()
			switch {
			case res.Cached:
				err = errors.New("fresh extraction served from cache")
			case res.ProbeQueries != n || len(res.Signals) != n || len(res.Norms) != n:
				err = fmt.Errorf("probe_queries %d, %d signals, %d norms; want %d", res.ProbeQueries, len(res.Signals), len(res.Norms), n)
			case res.Seed != seed || !allFinite(res.Signals) || !allFinite(res.Norms):
				err = errors.New("extraction echoed another seed or non-finite signals")
			}
			if err != nil {
				return dur, c.checkf("op %d: %v", i, err)
			}
			c.acct.charged += int64(res.ProbeQueries)
			c.acct.delivered += int64(len(res.Signals))
			putFs(c.digest, res.Signals)
			putFs(c.digest, res.Norms)
			putU(c.digest, uint64(res.ProbeQueries))
			if samples[c.id][i] && len(kept[c.id]) < 4 {
				kept[c.id] = append(kept[c.id], keptExtract{seed: seed, signals: res.Signals})
			}
			return dur, nil
		},
		verify: func() error {
			for _, k := range concat(kept) {
				signals, err := replayExtract(mnist, k.seed)
				if err != nil {
					return err
				}
				if !sameBits(signals, k.signals) {
					return fmt.Errorf("extraction seed %d differs from a sidechannel replay on the victim's hardware", k.seed)
				}
			}
			return nil
		},
	}
	heavy := &class{
		name: "heavy", op: "RunCampaign mnist, raw output, 200 queries, lambda 0.004, fresh seed", perCaller: p.heavy,
		run: func(ctx context.Context, c *caller, i int) (time.Duration, error) {
			req := campaign(opSeed(p.seed, "campaign", c.id, i))
			var res *api.CampaignResult
			dur, err := c.call(ctx, "RunCampaign", func(ctx context.Context) (err error) {
				res, err = c.c.RunCampaign(ctx, req)
				return err
			})
			if err != nil {
				return dur, err
			}
			inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
			switch {
			case res.Cached:
				err = errors.New("fresh campaign served from cache")
			case res.QueriesCharged != campaignQueries:
				err = fmt.Errorf("queries_charged %d, want %d", res.QueriesCharged, campaignQueries)
			case !inUnit(res.CleanAccuracy) || !inUnit(res.SurrogateAccuracy) || !inUnit(res.AdvAccuracy):
				err = errors.New("accuracy outside [0,1]")
			}
			if err != nil {
				return dur, c.checkf("op %d: %v", i, err)
			}
			c.acct.charged += int64(res.QueriesCharged)
			c.acct.delivered += int64(req.Queries)
			putF(c.digest, res.CleanAccuracy)
			putF(c.digest, res.SurrogateAccuracy)
			putF(c.digest, res.AdvAccuracy)
			putU(c.digest, uint64(res.QueriesCharged))
			if c.id == 0 {
				lastReq, lastResp = req, *res
			}
			return dur, nil
		},
	}
	return []*class{light, heavy}
}

// planExperimentJobs: heavy (first) = RunExperiment of a fresh
// ablate-noise spec at scale 0.05, runs 1; light = RunExperiment of a
// seeded pick of the specs the heavy phase completed, which must come
// back cached.
func planExperimentJobs(d *deployment, p *plan) []*class {
	type done struct {
		spec api.ExperimentSpec
		sum  [32]byte
	}
	completed := make([][]done, callers)
	var pool []done // every completed spec, in caller then op order
	var lastSpec api.ExperimentSpec
	var lastResp api.ExperimentResult
	spec := func(seed int64) api.ExperimentSpec {
		return api.ExperimentSpec{Name: experimentName, Seed: seed, Scale: experimentScale, Runs: 1}
	}
	resultSum := func(r *api.ExperimentResult) [32]byte {
		h := sha256.New()
		putS(h, r.Render)
		putS(h, string(r.Result))
		var s [32]byte
		copy(s[:], h.Sum(nil))
		return s
	}
	// The experiment builds its own victims; the layer replays run on the
	// deployment's mnist victim, as the standalone cost of each layer.
	p.replayRows["heavy"] = replayInput{victim: "mnist", seed: opSeed(p.seed, "experiment", 0, 0)}
	p.replayRows["light"] = replayInput{victim: "mnist", rows: [][]float64{d.victim("mnist").Test().X.Row(0)},
		seed: opSeed(p.seed, "experiment", 0, 0)}
	p.heavyInputs = func() any { return lastSpec }
	p.heavyResponse = func() any { return lastResp }
	p.warm = func(ctx context.Context, c *caller) error {
		s := spec(opSeed(p.seed, "warm-experiment", c.id, 0))
		if _, err := c.c.RunExperiment(ctx, s); err != nil {
			return err
		}
		res, err := c.c.RunExperiment(ctx, s)
		if err == nil && !res.Cached {
			err = errors.New("warm-up re-launch not cached")
		}
		return err
	}
	heavy := &class{
		name: "heavy", op: "RunExperiment ablate-noise, scale 0.05, runs 1, fresh seed", perCaller: p.heavy,
		run: func(ctx context.Context, c *caller, i int) (time.Duration, error) {
			s := spec(opSeed(p.seed, "experiment", c.id, i))
			var res *api.ExperimentResult
			dur, err := c.call(ctx, "RunExperiment", func(ctx context.Context) (err error) {
				res, err = c.c.RunExperiment(ctx, s)
				return err
			})
			if err != nil {
				return dur, err
			}
			if err := checkExperiment(res, s, false); err != nil {
				return dur, c.checkf("op %d: %v", i, err)
			}
			sum := resultSum(res)
			c.digest.Write(sum[:])
			completed[c.id] = append(completed[c.id], done{spec: s, sum: sum})
			if c.id == 0 {
				lastSpec, lastResp = s, *res
			}
			return dur, nil
		},
	}
	var picks [][]int
	light := &class{
		name: "light", op: "RunExperiment of a completed ablate-noise spec (cache hit)", perCaller: p.light,
		run: func(ctx context.Context, c *caller, i int) (time.Duration, error) {
			want := pool[picks[c.id][i]]
			var res *api.ExperimentResult
			dur, err := c.call(ctx, "RunExperiment", func(ctx context.Context) (err error) {
				res, err = c.c.RunExperiment(ctx, want.spec)
				return err
			})
			if err != nil {
				return dur, err
			}
			if err := checkExperiment(res, want.spec, true); err != nil {
				return dur, c.checkf("op %d: %v", i, err)
			}
			if resultSum(res) != want.sum {
				return dur, c.checkf("op %d: cached result differs from the computed one", i)
			}
			c.digest.Write(want.sum[:])
			return dur, nil
		},
	}
	// The light picks depend on which specs the heavy phase completed,
	// so they are drawn once it has finished (heavy runs first).
	heavy.verify = func() error {
		pool = concat(completed)
		if len(pool) == 0 {
			return errors.New("no experiment completed")
		}
		picks = make([][]int, callers)
		for k := range callers {
			r := picker(p.seed, "light-picks", k)
			picks[k] = make([]int, p.light)
			for i := range picks[k] {
				picks[k][i] = r.IntN(len(pool))
			}
		}
		return nil
	}
	return []*class{heavy, light}
}

func checkExperiment(res *api.ExperimentResult, spec api.ExperimentSpec, cached bool) error {
	switch {
	case res.Cached != cached:
		return fmt.Errorf("cached %v, want %v", res.Cached, cached)
	case res.Name != spec.Name || res.Seed != spec.Seed:
		return fmt.Errorf("result for %s/%d, want %s/%d", res.Name, res.Seed, spec.Name, spec.Seed)
	case res.Render == "" || !json.Valid(res.Result):
		return errors.New("empty render or invalid result JSON")
	}
	return nil
}
