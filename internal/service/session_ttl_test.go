package service

import (
	"errors"
	"testing"
	"time"

	"xbarsec/internal/dataset"
)

// ttlService builds a service hosting one tiny victim.
func ttlService(t *testing.T, cfg Config) (*Service, *Victim) {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(svc.Close)
	v, err := TrainVictim(VictimSpec{
		Name: "mnist", Kind: dataset.MNIST, Seed: 1,
		TrainN: 200, TestN: 100, Epochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Register(v); err != nil {
		t.Fatal(err)
	}
	return svc, v
}

func TestIdleSessionIsReaped(t *testing.T) {
	svc, v := ttlService(t, Config{Seed: 1, SessionTTL: time.Hour})
	sess, err := svc.OpenSession("mnist", SessionConfig{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float64, v.Inputs())
	if _, err := sess.Query(input); err != nil {
		t.Fatal(err)
	}
	// Still live: a sweep at the current time reaps nothing.
	if n := svc.ReapIdleSessions(time.Now()); n != 0 {
		t.Fatalf("reaped %d live sessions", n)
	}
	if _, err := svc.Session(sess.ID()); err != nil {
		t.Fatal(err)
	}
	// Abandoned: a sweep from the far future reaps it and cleans the
	// victim's open-session gauge.
	if n := svc.ReapIdleSessions(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	if _, err := svc.Session(sess.ID()); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("reaped session still resolvable: %v", err)
	}
	if open := v.open.Load(); open != 0 {
		t.Fatalf("victim open-session gauge %d after reap, want 0", open)
	}
	if got := svc.Stats().ReapedSessions; got != 1 {
		t.Fatalf("stats report %d reaped sessions, want 1", got)
	}
	// The victim is intact: a new session on the same victim still
	// serves queries.
	sess2, err := svc.OpenSession("mnist", SessionConfig{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Query(input); err != nil {
		t.Fatalf("victim broken after reap: %v", err)
	}
	// Reaping an already-reaped or closed session is idempotent.
	if n := svc.ReapIdleSessions(time.Now().Add(-time.Minute)); n != 0 {
		t.Fatalf("stale sweep reaped %d", n)
	}
}

func TestSessionJanitorReapsInBackground(t *testing.T) {
	svc, _ := ttlService(t, Config{Seed: 1, SessionTTL: 20 * time.Millisecond})
	sess, err := svc.OpenSession("mnist", SessionConfig{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := svc.Session(sess.ID()); errors.Is(err, ErrSessionUnknown) {
			return // reaped by the janitor
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never reaped the abandoned session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestQueryKeepsSessionAlive(t *testing.T) {
	svc, v := ttlService(t, Config{Seed: 1, SessionTTL: time.Hour})
	sess, err := svc.OpenSession("mnist", SessionConfig{Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.lastUsed.Load()
	time.Sleep(2 * time.Millisecond)
	if _, err := sess.Query(make([]float64, v.Inputs())); err != nil {
		t.Fatal(err)
	}
	if after := sess.lastUsed.Load(); after <= before {
		t.Fatal("query must refresh the idle clock")
	}
}

func TestPerVictimSessionCap(t *testing.T) {
	svc, _ := ttlService(t, Config{Seed: 1, MaxSessionsPerVictim: 2})
	a, err := svc.OpenSession("mnist", SessionConfig{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenSession("mnist", SessionConfig{Budget: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenSession("mnist", SessionConfig{Budget: 10}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third open: err = %v, want ErrSessionLimit", err)
	}
	// Closing a session frees a slot.
	if err := svc.CloseSession(a.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenSession("mnist", SessionConfig{Budget: 10}); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

func TestReapFreesCapSlot(t *testing.T) {
	svc, _ := ttlService(t, Config{Seed: 1, SessionTTL: time.Hour, MaxSessionsPerVictim: 1})
	if _, err := svc.OpenSession("mnist", SessionConfig{Budget: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenSession("mnist", SessionConfig{Budget: 10}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("err = %v, want ErrSessionLimit", err)
	}
	if n := svc.ReapIdleSessions(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if _, err := svc.OpenSession("mnist", SessionConfig{Budget: 10}); err != nil {
		t.Fatalf("open after reap: %v", err)
	}
}
