package service

import (
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
)

// ErrSessionUnknown indicates a lookup for a closed, expired or
// never-opened session.
var ErrSessionUnknown = errors.New("service: unknown session")

// ErrSessionLimit indicates a victim is at its per-victim open-session
// cap (Config.MaxSessionsPerVictim).
var ErrSessionLimit = errors.New("service: victim session limit reached")

// victimHW is the oracle.Hardware every session and job reads a victim
// through. Each batched read is one array pass on the calling
// goroutine, behind the victim's read guard, and is counted in the
// victim's serving statistics. A single query is a batch of one, and a
// power-measuring query costs one fused pass. On a noisy victim the
// guard is also the required serializer: every read draws from the
// noise stream, so results depend on concurrent traffic, as real shared
// noisy hardware's do.
type victimHW struct {
	v *Victim
}

// ForwardBatch reads the whole query slice in one array pass.
func (h victimHW) ForwardBatch(us [][]float64) ([][]float64, error) {
	if err := h.v.beginRead(us); err != nil {
		return nil, err
	}
	defer h.v.reads.end()
	return h.v.hw.ForwardBatch(us)
}

// ForwardPowerBatch is the fused batched read: both observables for the
// whole slice in one array pass.
func (h victimHW) ForwardPowerBatch(us [][]float64) ([][]float64, []float64, error) {
	if err := h.v.beginRead(us); err != nil {
		return nil, nil, err
	}
	defer h.v.reads.end()
	return h.v.hw.ForwardPowerBatch(us)
}

func (h victimHW) Inputs() int                  { return h.v.hw.Inputs() }
func (h victimHW) Outputs() int                 { return h.v.hw.Outputs() }
func (h victimHW) Crossbar() *crossbar.Crossbar { return h.v.hw.Crossbar() }

var _ oracle.Hardware = victimHW{}

// SessionConfig controls what one attacker session may observe and spend.
type SessionConfig struct {
	// Mode selects label-only or raw-output disclosure (0 = label-only).
	Mode oracle.Mode
	// MeasurePower attaches the power side channel to every query.
	MeasurePower bool
	// PowerNoiseStd is the relative instrument noise on power readings.
	PowerNoiseStd float64
	// Budget caps the session's oracle queries. 0 selects the service
	// default; negative means unlimited.
	Budget int
}

// Session is one attacker's budgeted handle on a shared victim. All its
// queries read the victim through its read guard, its budget is enforced
// atomically by the oracle layer (exact under any concurrency), and its
// instrument-noise randomness comes from a session-private stream
// derived with rng.Split from the service root — so no session's draws
// ever perturb another's.
type Session struct {
	id     string
	victim *Victim
	oracle *oracle.Oracle
	// lastUsed is the unix-nano time of the session's last query (or
	// its open), read by the idle-TTL janitor.
	lastUsed atomic.Int64
}

// OpenSession admits a new attacker session against a registered victim.
// In a cluster the victim's ring owner hosts all of its sessions (their
// state — budgets, noise streams — is node-local); other nodes redirect,
// and the SDK pins the session handle to the node that opened it.
func (s *Service) OpenSession(victim string, cfg SessionConfig) (*Session, error) {
	if s.isClosed() {
		return nil, ErrServiceClosed
	}
	if err := s.routeVictim(victim); err != nil {
		return nil, err
	}
	v, err := s.Victim(victim)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == 0 {
		cfg.Mode = oracle.LabelOnly
	}
	budget := cfg.Budget
	switch {
	case budget == 0:
		budget = s.cfg.DefaultSessionBudget
	case budget < 0:
		budget = 0 // unlimited in oracle terms
	}
	// Admission against the per-victim cap: optimistically increment,
	// then undo on overshoot. Concurrent opens can transiently exceed
	// the cap inside this window but never both remain admitted.
	if max := s.cfg.MaxSessionsPerVictim; max > 0 {
		if v.open.Add(1) > int64(max) {
			v.open.Add(-1)
			return nil, fmt.Errorf("service: victim %q: %w", v.name, ErrSessionLimit)
		}
	} else {
		v.open.Add(1)
	}
	admitted := false
	defer func() {
		if !admitted {
			v.open.Add(-1)
		}
	}()
	ord := v.sessionSeq.Add(1)
	// The id doubles as the session's only credential on the HTTP API,
	// so it carries an unguessable token — a sequential id would let
	// any client spend or close another attacker's budget.
	var token [8]byte
	if _, err := cryptorand.Read(token[:]); err != nil {
		return nil, fmt.Errorf("service: generating session token: %w", err)
	}
	id := fmt.Sprintf("%s-s%d-%x", v.name, ord, token)
	src := s.root.Split("victim:"+v.name).SplitN("session", int(ord))
	var noiseSrc *rng.Source
	if cfg.PowerNoiseStd > 0 {
		noiseSrc = src.Split("power-noise")
	}
	orc, err := oracle.New(victimHW{v: v}, oracle.Config{
		Mode:          cfg.Mode,
		MeasurePower:  cfg.MeasurePower,
		PowerNoiseStd: cfg.PowerNoiseStd,
		Src:           noiseSrc,
		Budget:        budget,
	})
	if err != nil {
		return nil, err
	}
	sess := &Session{id: id, victim: v, oracle: orc}
	sess.lastUsed.Store(time.Now().UnixNano()) //xbar:allow session idle-TTL bookkeeping: wall time drives eviction only, never results
	if !s.sessions.put(id, sess) {
		return nil, fmt.Errorf("service: session id collision %q", id)
	}
	admitted = true
	return sess, nil
}

// Session returns an open session by id.
func (s *Service) Session(id string) (*Session, error) {
	sess, ok := s.sessions.get(id)
	if !ok {
		return nil, fmt.Errorf("service: session %q: %w", id, ErrSessionUnknown)
	}
	return sess, nil
}

// CloseSession removes a session; its remaining budget is forfeited.
func (s *Service) CloseSession(id string) error {
	sess, ok := s.sessions.remove(id)
	if !ok {
		return fmt.Errorf("service: session %q: %w", id, ErrSessionUnknown)
	}
	sess.victim.open.Add(-1)
	return nil
}

// ID returns the session identifier.
func (sess *Session) ID() string { return sess.id }

// Victim returns the attacked victim's name.
func (sess *Session) Victim() string { return sess.victim.name }

// Mode returns the session's disclosure mode.
func (sess *Session) Mode() oracle.Mode { return sess.oracle.Mode() }

// Query runs one attacker query as a one-row array read, charging
// the session budget if and only if a response is delivered (the oracle
// accounting contract). Every query marks the session live for the
// idle-TTL janitor.
func (sess *Session) Query(u []float64) (oracle.Response, error) {
	sess.lastUsed.Store(time.Now().UnixNano()) //xbar:allow session idle-TTL bookkeeping: wall time drives eviction only, never results
	return sess.oracle.Query(u)
}

// QueryBatch runs a whole query slice as one array read, with
// per-query budget accounting (prefix admission — see
// oracle.QueryBatch). Responses are bit-identical to calling Query
// sequentially with the same inputs, but the victim serves the batch
// in one array pass; on a noisy victim no other submission's rows
// interleave with it.
func (sess *Session) QueryBatch(us [][]float64) ([]oracle.Response, error) {
	sess.lastUsed.Store(time.Now().UnixNano()) //xbar:allow session idle-TTL bookkeeping: wall time drives eviction only, never results
	return sess.oracle.QueryBatch(us)
}

// Queries returns how many queries the session has been charged.
func (sess *Session) Queries() int { return sess.oracle.Queries() }

// Budget returns the session's query cap (0 = unlimited).
func (sess *Session) Budget() int { return sess.oracle.Budget() }

// Remaining returns the unspent budget, or -1 when unlimited.
func (sess *Session) Remaining() int { return sess.oracle.Remaining() }
