package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"xbarsec/client"
	"xbarsec/internal/dataset"
	"xbarsec/internal/service"
)

// The deployment mirrors cmd/xbarserve with its defaults: service seed
// 1, both demo victims trained at 600/200 rows for 30 epochs, the
// reference tensor backend, journal fsync on, default budgets.
const (
	serviceSeed = 1
	trainN      = 600
	testN       = 200
	epochs      = 30
	callers     = 2 // closed-loop SDK callers, one keep-alive connection each
)

// victimSpecs are the two demo victims every deployment hosts.
var victimSpecs = []service.VictimSpec{
	{Name: "mnist", Kind: dataset.MNIST, Seed: serviceSeed, TrainN: trainN, TestN: testN, Epochs: epochs},
	{Name: "cifar10", Kind: dataset.CIFAR10, Seed: serviceSeed, TrainN: trainN, TestN: testN, Epochs: epochs},
}

// deployment is one in-process xbarserve: the service, its HTTP
// listener on 127.0.0.1, and the SDK clients that drive it.
type deployment struct {
	svc      *service.Service
	victims  map[string]*service.Victim
	srv      *http.Server
	served   chan error
	url      string
	stateDir string // "" for the memory-only twin
	clients  []*client.Client
	trans    []*http.Transport

	closeOnce sync.Once
	closeErr  error
}

// boot builds a deployment the way xbarserve does. stateDir selects
// service.Open (durable) over service.New (memory-only); tr, when set,
// wraps the handler and every client transport with spans.
func boot(stateDir string, tr *tracer) (*deployment, error) {
	cfg := service.Config{Seed: serviceSeed, JournalFsync: true, StateDir: stateDir}
	d := &deployment{victims: map[string]*service.Victim{}, stateDir: stateDir}
	if stateDir != "" {
		svc, _, err := service.Open(cfg)
		if err != nil {
			return nil, err
		}
		d.svc = svc
	} else {
		d.svc = service.New(cfg)
	}
	for _, spec := range victimSpecs {
		v, err := service.TrainVictim(spec)
		if err != nil {
			d.close()
			return nil, err
		}
		if err := d.svc.Register(v); err != nil {
			d.close()
			return nil, err
		}
		d.victims[spec.Name] = v
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	var h http.Handler = d.svc.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	d.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	for range callers {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		var rt http.RoundTripper = t
		if tr != nil {
			rt = &transport{base: t, tr: tr}
		}
		c, err := client.New(d.url, client.WithHTTPClient(&http.Client{Transport: rt}))
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
		d.trans = append(d.trans, t)
	}
	return d, nil
}

// close stops the listener, waits for the server goroutine, closes the
// service and removes the state directory. Later calls return the first
// call's error.
func (d *deployment) close() error {
	d.closeOnce.Do(func() { d.closeErr = d.shutdown() })
	return d.closeErr
}

func (d *deployment) shutdown() error {
	var errs []error
	for _, t := range d.trans {
		t.CloseIdleConnections()
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, d.srv.Shutdown(ctx))
		cancel()
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	d.svc.Close()
	if d.stateDir != "" {
		errs = append(errs, os.RemoveAll(d.stateDir))
	}
	return errors.Join(errs...)
}

// victim returns a registered victim by name.
func (d *deployment) victim(name string) *service.Victim {
	v, ok := d.victims[name]
	if !ok {
		panic(fmt.Sprintf("xbarbench: no victim %q", name))
	}
	return v
}
