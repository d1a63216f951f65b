package service

import (
	"errors"
	"fmt"

	"xbarsec/api"
	"xbarsec/internal/attack"
	"xbarsec/internal/oracle"
	"xbarsec/internal/pool"
	"xbarsec/internal/rng"
	"xbarsec/internal/sidechannel"
	"xbarsec/internal/surrogate"
	"xbarsec/internal/tensor"
)

// CampaignSpec fully determines one model-extraction-plus-evasion
// campaign: collect a budgeted query set from the victim, train a
// surrogate with the paper's joint loss (Eq. 9), craft FGSM adversarial
// examples on the surrogate, and measure the oracle's accuracy on them —
// one cell of the paper's Figure 5 grid, as a service job. Every random
// choice derives from Seed via rng.Split, so against a noise-free
// victim a spec is also the campaign's cache key and replaying it is
// bit-identical at any worker count. Noisy victims' reads depend on
// concurrent traffic, so their campaigns run uncached.
// CampaignSpec is the internal job spec; its wire form is
// api.CampaignRequest (the HTTP layer converts, parsing the mode).
type CampaignSpec struct {
	// Victim names the registered victim to attack.
	Victim string
	// Mode is the disclosure mode (label-only or raw-output).
	Mode oracle.Mode
	// Seed drives collection shuffling, surrogate init and SGD order.
	Seed int64
	// Queries is the attacker's oracle budget (Figure 5's cost axis).
	Queries int
	// Lambda is the power-loss weight λ of Eq. (9); 0 ignores power.
	Lambda float64
	// SurrogateEpochs overrides surrogate training length (0 = default).
	SurrogateEpochs int
	// AttackEps is the FGSM strength (0 = the paper's Figure 5 value 0.1).
	AttackEps float64
}

// withDefaults normalizes the optional fields.
func (c CampaignSpec) withDefaults() CampaignSpec {
	if c.AttackEps == 0 {
		c.AttackEps = 0.1
	}
	return c
}

// key is the artifact-cache identity: every field that influences the
// result, nothing that doesn't (worker count deliberately excluded — the
// result is bit-identical at any). A non-reference tensor backend
// shifts the numbers within its tolerance bound, so it suffixes the
// key rather than aliasing the reference artifact.
func (c CampaignSpec) key() string {
	return fmt.Sprintf("campaign|%s|%s|%d|%d|%g|%d|%g",
		c.Victim, c.Mode, c.Seed, c.Queries, c.Lambda, c.SurrogateEpochs, c.AttackEps) +
		backendKeySuffix()
}

// CampaignResult is the deliverable of one campaign job — served
// verbatim on the wire, so it is defined by the public protocol
// package.
type CampaignResult = api.CampaignResult

// RunCampaign executes (or serves from cache) one campaign job. Jobs are
// admitted through the service gate, so at most Config.MaxConcurrentJobs
// run at once; within a job the per-sample attack evaluation fans out
// across Config.Workers via the deterministic pool. In a cluster the
// victim's ring owner serves all of its campaigns; other nodes redirect.
func (s *Service) RunCampaign(spec CampaignSpec) (*CampaignResult, error) {
	if err := spec.check(); err != nil {
		return nil, err
	}
	if err := s.routeVictim(spec.Victim); err != nil {
		return nil, err
	}
	return s.runCampaignJob(spec)
}

// check rejects the spec fields that need no victim. RunCampaign runs it
// before ring admission, so in a cluster the first node to see a
// malformed spec refuses it instead of redirecting it to the owner.
func (c CampaignSpec) check() error {
	if c.Queries <= 0 {
		return badRequestf("service: campaign query budget %d must be positive", c.Queries)
	}
	if c.SurrogateEpochs < 0 || c.SurrogateEpochs > maxSurrogateEpochs {
		return badRequestf("service: campaign surrogate epochs %d outside [0, %d]", c.SurrogateEpochs, maxSurrogateEpochs)
	}
	if c.Lambda < 0 {
		return badRequestf("service: campaign lambda %v must be non-negative", c.Lambda)
	}
	if c.AttackEps < 0 {
		return badRequestf("service: campaign attack eps %v must be non-negative", c.AttackEps)
	}
	switch c.Mode {
	case oracle.LabelOnly, oracle.RawOutput:
		return nil
	}
	return badRequestf("service: unknown disclosure mode %v", c.Mode)
}

// runCampaignJob is RunCampaign minus ring admission and the spec check
// — the journal replay path (drainPendingSync) takes it after running
// the check itself, because a journaled job is this node's to finish
// regardless of membership changes across the restart.
func (s *Service) runCampaignJob(spec CampaignSpec) (*CampaignResult, error) {
	if s.isClosed() {
		return nil, ErrServiceClosed
	}
	spec = spec.withDefaults()
	v, err := s.Victim(spec.Victim)
	if err != nil {
		return nil, err
	}
	if v.train == nil || v.test == nil {
		return nil, badRequestf("service: victim %q has no data splits for campaigns", v.name)
	}
	compute := func() (*CampaignResult, error) { return s.runCampaign(spec, v) }
	// A noisy victim's reads depend on concurrent traffic, so its
	// results are not functions of the spec — never cache them.
	if v.Noisy() {
		res, err := gated(s, compute)
		if err != nil {
			return nil, err
		}
		s.campaigns.Add(1)
		return res, nil
	}
	// Journaled like an experiment job, so a crash mid-campaign replays
	// the spec at the next Open (once the victim registers) instead of
	// losing the work. The key doubles as the journal id — sync jobs
	// have no poll handle.
	key := spec.key()
	val, cached, err := serveArtifact(s, key, &journalRecord{Op: opLaunch, ID: key, Campaign: &spec}, nil, compute)
	if err != nil {
		return nil, err
	}
	res := *val // copy so Cached can differ per caller
	res.Cached = cached
	s.campaigns.Add(1)
	return &res, nil
}

// runCampaign is the deterministic pipeline body.
func (s *Service) runCampaign(spec CampaignSpec, v *Victim) (*CampaignResult, error) {
	root := rng.New(spec.Seed).Split("campaign").Split(v.name)
	orc, err := oracle.New(victimHW{v: v}, oracle.Config{
		Mode: spec.Mode, MeasurePower: true, Budget: spec.Queries,
	})
	if err != nil {
		return nil, err
	}
	qs, err := oracle.Collect(orc, v.train, spec.Queries, root.Split("collect"))
	if err != nil {
		return nil, fmt.Errorf("service: campaign collection: %w", err)
	}
	sCfg := surrogate.DefaultConfig()
	sCfg.Lambda = spec.Lambda
	if spec.SurrogateEpochs > 0 {
		sCfg.Epochs = spec.SurrogateEpochs
	}
	model, err := surrogate.Train(qs, sCfg, root.Split("surrogate"))
	if err != nil {
		return nil, fmt.Errorf("service: surrogate training: %w", err)
	}
	clean, err := v.clean()
	if err != nil {
		return nil, err
	}
	oh := v.test.OneHot()
	advs := make([][]float64, v.test.Len())
	err = pool.DoErr(s.cfg.Workers, v.test.Len(), func(i int) error {
		adv, err := attack.FGSM(model.Net, v.test.X.Row(i), oh.Row(i), spec.AttackEps)
		if err != nil {
			return err
		}
		advs[i] = adv
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: crafting adversarial examples: %w", err)
	}
	labels, err := predictAll(v, advs)
	if err != nil {
		return nil, err
	}
	correct := 0
	for i, l := range labels {
		if l == v.test.Labels[i] {
			correct++
		}
	}
	return &CampaignResult{
		Victim:            v.name,
		Mode:              api.Mode(spec.Mode.String()),
		Seed:              spec.Seed,
		Queries:           spec.Queries,
		Lambda:            spec.Lambda,
		AttackEps:         spec.AttackEps,
		CleanAccuracy:     clean,
		SurrogateAccuracy: model.Accuracy(v.test.X, v.test.Labels),
		AdvAccuracy:       float64(correct) / float64(v.test.Len()),
		QueriesCharged:    orc.Queries(),
	}, nil
}

// predictAll classifies a batch of inputs on the victim, through the
// batched predictor (noise-free) or the read guard (noisy).
func predictAll(v *Victim, us [][]float64) ([]int, error) {
	if !v.Noisy() {
		return v.hw.PredictBatch(us)
	}
	ys, err := victimHW{v: v}.ForwardBatch(us)
	if err != nil {
		return nil, err
	}
	labels := make([]int, len(ys))
	for i, y := range ys {
		labels[i] = tensor.ArgMax(y)
	}
	return labels, nil
}

// ExtractSpec determines one power-side-channel extraction job: basis
// queries through a measurement probe (Section III's procedure), with
// optional instrument noise. It is served verbatim on the wire, so it
// is defined by the public protocol package.
type ExtractSpec = api.ExtractRequest

// maxExtractRepeats bounds ExtractSpec.Repeats: an extraction makes
// Inputs × Repeats probe reads while holding a job-gate slot, so an
// unbounded count would hold that slot for ever. The largest count the
// experiments use is 16 (ablation A1); 1000 leaves headroom.
const maxExtractRepeats = 1000

// checkExtract rejects the extraction spec fields that need no victim.
// RunExtract runs it before ring admission, like CampaignSpec.check.
func checkExtract(e ExtractSpec) error {
	if e.NoiseStd < 0 {
		return badRequestf("service: negative probe noise %v", e.NoiseStd)
	}
	if e.Repeats < 0 || e.Repeats > maxExtractRepeats {
		return badRequestf("service: extraction repeats %d outside [0, %d]", e.Repeats, maxExtractRepeats)
	}
	return nil
}

// extractDefaults normalizes an extraction spec's optional fields.
func extractDefaults(e ExtractSpec) ExtractSpec {
	if e.Repeats <= 0 {
		e.Repeats = 1
	}
	return e
}

// extractKey is the artifact-cache identity: (victim, probe config,
// seed), backend-suffixed like campaign keys.
func extractKey(e ExtractSpec) string {
	return fmt.Sprintf("extract|%s|%d|%g|%d", e.Victim, e.Repeats, e.NoiseStd, e.Seed) +
		backendKeySuffix()
}

// ExtractResult carries the recovered power-channel signals (the wire
// type).
type ExtractResult = api.ExtractResult

// probeMeter adapts a victim's guarded reads to the
// sidechannel.PowerMeter interface so extraction jobs read the array
// the way sessions do: each probe reading is a fused read of one row.
// The one-row batch stays on the stack, since neither the read guard nor
// the kernel keeps it, so a reading allocates only what the kernel does
// (TestProbeReadAllocsMatchKernel). A basis row drives one input, so on
// a noise-free array the fused kernel walks that one column instead of
// sweeping every device. Power neither keeps nor modifies u, as the
// interface requires: the probe reuses one basis vector across an
// extraction's reads.
type probeMeter struct{ h victimHW }

func (m probeMeter) Power(u []float64) (float64, error) {
	_, ps, err := m.h.ForwardPowerBatch([][]float64{u})
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}

func (m probeMeter) Inputs() int { return m.h.Inputs() }

// RunExtract executes (or serves from cache) one extraction job. In a
// cluster the victim's ring owner serves it; other nodes redirect.
func (s *Service) RunExtract(spec ExtractSpec) (*ExtractResult, error) {
	if err := checkExtract(spec); err != nil {
		return nil, err
	}
	if err := s.routeVictim(spec.Victim); err != nil {
		return nil, err
	}
	return s.runExtractJob(spec)
}

// runExtractJob is RunExtract minus ring admission and the spec check
// (see runCampaignJob).
func (s *Service) runExtractJob(spec ExtractSpec) (*ExtractResult, error) {
	if s.isClosed() {
		return nil, ErrServiceClosed
	}
	spec = extractDefaults(spec)
	v, err := s.Victim(spec.Victim)
	if err != nil {
		return nil, err
	}
	compute := func() (*ExtractResult, error) { return s.runExtract(spec, v) }
	if v.Noisy() {
		// Not a function of the spec (see runCampaignJob) — never cached.
		return gated(s, compute)
	}
	// Journaled like a campaign (see runCampaignJob).
	key := extractKey(spec)
	val, cached, err := serveArtifact(s, key, &journalRecord{Op: opLaunch, ID: key, Extract: &spec}, nil, compute)
	if err != nil {
		return nil, err
	}
	res := *val
	// Deep-copy the slices: the cached artifact is shared by every
	// future caller, so handing out aliases would let one client's
	// in-place post-processing corrupt everyone else's results — the
	// same ownership bug class Response.Raw had.
	res.Signals = append([]float64(nil), res.Signals...)
	res.Norms = append([]float64(nil), res.Norms...)
	res.Cached = cached
	return &res, nil
}

func (s *Service) runExtract(spec ExtractSpec, v *Victim) (*ExtractResult, error) {
	var src *rng.Source
	if spec.NoiseStd > 0 {
		src = rng.New(spec.Seed).Split("extract").Split(v.name)
	}
	probe, err := sidechannel.NewProbe(probeMeter{h: victimHW{v: v}}, spec.NoiseStd, src)
	if err != nil {
		return nil, err
	}
	signals, err := probe.ExtractColumnSignals(spec.Repeats)
	if err != nil {
		if errors.Is(err, ErrVictimClosed) {
			return nil, err
		}
		return nil, fmt.Errorf("service: extraction: %w", err)
	}
	xb := v.hw.Crossbar()
	norms := sidechannel.CalibrateColumnNorms(signals, xb.Config(), v.Outputs(), xb.Scale())
	// A probe noise near the float64 limit overflows the readings: such
	// a result cannot be encoded, so it fails typed (and uncached)
	// instead of reaching the artifact cache.
	if !tensor.AllFinite(signals) || !tensor.AllFinite(norms) {
		return nil, badRequestf("service: extraction with probe noise %g produced non-finite signals", spec.NoiseStd)
	}
	return &ExtractResult{
		Victim:       v.name,
		Repeats:      spec.Repeats,
		NoiseStd:     spec.NoiseStd,
		Seed:         spec.Seed,
		Signals:      signals,
		Norms:        norms,
		ProbeQueries: probe.Queries(),
	}, nil
}
