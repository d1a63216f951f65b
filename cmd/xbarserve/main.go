// Command xbarserve exposes the attack-campaign service over HTTP: it
// trains demo victim networks, programs them onto simulated crossbars,
// and serves concurrent attacker sessions, side-channel extractions and
// full extraction/evasion campaigns from one shared registry. The wire
// protocol is the versioned public xbarsec/api package; the supported
// way to drive a server is the xbarsec/client SDK (curl works too —
// every body is plain JSON).
//
// Usage:
//
//	xbarserve [flags]
//
// Flags:
//
//	-addr     string  listen address (default :8080)
//	-victims  string  comma-separated demo victims to host:
//	                  mnist,cifar10 (default mnist)
//	-seed     int     service and victim seed (default 1)
//	-train-n  int     victim training-set size (default 600)
//	-test-n   int     victim test-set size (default 200)
//	-epochs   int     victim training epochs (default 30)
//	-budget   int     default session query budget (default 10000)
//	-workers  int     per-job fan-out (0 = all CPUs)
//	-jobs     int     max concurrent campaign/experiment jobs (0 = all CPUs)
//	-fast             serve with the fast tensor backend (SIMD +
//	                  unrolled GEMM kernels). A process-wide serving
//	                  mode, selected before any victim trains: results
//	                  agree with a reference server only within the
//	                  documented tolerance (see internal/tensor), the
//	                  mode is surfaced in /v2/version and /v2/stats as
//	                  tensor_backend, and artifacts cache under
//	                  backend-suffixed keys so a -data-dir shared
//	                  across modes never aliases their numbers
//	-data     string  directory with real MNIST/CIFAR files (optional)
//	-data-dir string  durable state directory (job journal + artifact
//	                  spill); when set the server journals every
//	                  accepted experiment job before launch, replays
//	                  incomplete jobs on restart, and serves completed
//	                  artifacts from the on-disk spill store
//	                  (empty = memory-only)
//	-journal-fsync  bool  fsync every journal append before accepting
//	                      the job (default true; disable only when the
//	                      filesystem's write cache is trusted)
//	-journal-mb     int   job-journal byte budget in MiB between
//	                      compactions (0 = 64)
//	-session-ttl       duration  evict sessions idle longer than this
//	                             (0 = never; e.g. 10m)
//	-max-sessions      int       cap concurrently open sessions per victim
//	                             (0 = unlimited)
//	-artifact-cache-mb int       byte budget of the artifact cache in MiB
//	                             (0 = 256)
//	-victim-cache-mb   int       byte budget of the experiment victim
//	                             store in MiB (0 = 1024)
//	-node-id     string  this node's id within -peers; setting both makes
//	                     the server one node of a static cluster
//	-peers       string  full cluster membership as "id=url,..." —
//	                     including this node — identical on every node.
//	                     Each key's requests are served by its
//	                     consistent-hash owner; other nodes answer with a
//	                     node_redirect (HTTP 421) the SDK follows, and
//	                     owners fetch-and-verify artifacts their peers
//	                     already computed instead of recomputing. All
//	                     nodes must share -seed (victims must be
//	                     bit-identical) and should share -fast
//	-ring-vnodes int     virtual nodes per member on the placement ring
//	                     (0 = 64); must match across the cluster
//	-smoke                       after boot, drive the server through the
//	                             client SDK (version handshake, session,
//	                             batched queries, stats), print the
//	                             results, and exit
//
// Quickstart with the Go SDK (see README.md for the full tour):
//
//	c, _ := client.New("http://localhost:8080")
//	sess, _ := c.OpenSession(ctx, api.OpenSessionRequest{
//		Victim: "mnist", Mode: api.ModeRawOutput,
//		MeasurePower: true, Budget: 100,
//	})
//	batch, _ := sess.QueryBatch(ctx, inputs) // N queries, 1 round trip
//	res, _ := c.RunCampaign(ctx, api.CampaignRequest{
//		Victim: "mnist", Mode: api.ModeRawOutput,
//		Seed: 7, Queries: 200, Lambda: 0.004,
//	})
//
// Any experiment in the grid-engine registry runs server-side too,
// including fig5 with custom sweep grids:
//
//	infos, _ := c.Experiments(ctx)
//	res, _ := c.RunExperiment(ctx, api.ExperimentSpec{
//		Name: "fig5", Seed: 7, Scale: 0.05,
//		Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{
//			Queries: []int{10, 100}, Lambdas: []float64{0, 0.01},
//		}},
//	})
//	job, _ := c.LaunchExperiment(ctx, api.ExperimentSpec{Name: "table1", Seed: 7})
//	done, _ := c.WaitJob(ctx, job.ID, 0)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/cluster"
	"xbarsec/internal/dataset"
	"xbarsec/internal/experiment"
	"xbarsec/internal/service"
	"xbarsec/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xbarserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("xbarserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	victims := fs.String("victims", "mnist", "comma-separated demo victims (mnist,cifar10)")
	seed := fs.Int64("seed", 1, "service and victim seed")
	trainN := fs.Int("train-n", 600, "victim training-set size")
	testN := fs.Int("test-n", 200, "victim test-set size")
	epochs := fs.Int("epochs", 30, "victim training epochs")
	budget := fs.Int("budget", 10000, "default session query budget")
	workers := fs.Int("workers", 0, "per-job fan-out (0 = all CPUs)")
	jobs := fs.Int("jobs", 0, "max concurrent campaign/experiment jobs (0 = all CPUs)")
	dataDir := fs.String("data", "", "directory with real MNIST/CIFAR-10 files")
	stateDir := fs.String("data-dir", "", "durable state directory (job journal + artifact spill); empty = memory-only")
	journalFsync := fs.Bool("journal-fsync", true, "fsync every journal append before accepting the job")
	journalMB := fs.Int("journal-mb", 0, "job-journal byte budget in MiB between compactions (0 = 64)")
	sessionTTL := fs.Duration("session-ttl", 0, "evict sessions idle longer than this (0 = never)")
	maxSessions := fs.Int("max-sessions", 0, "cap concurrently open sessions per victim (0 = unlimited)")
	artifactMB := fs.Int("artifact-cache-mb", 0, "artifact-cache byte budget in MiB (0 = 256)")
	victimMB := fs.Int("victim-cache-mb", 0, "experiment victim-store byte budget in MiB (0 = 1024)")
	smoke := fs.Bool("smoke", false, "boot, self-check through the client SDK, and exit")
	fast := fs.Bool("fast", false, "serve with the fast tensor backend (tolerance-equal to the bit-exact default; see internal/tensor)")
	nodeID := fs.String("node-id", "", "this node's id within -peers (cluster mode)")
	peers := fs.String("peers", "", `full cluster membership as "id=url,..." including this node`)
	ringVNodes := fs.Int("ring-vnodes", 0, "virtual nodes per member on the placement ring (0 = 64)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fast {
		// Selected once, before victims train or the service opens — the
		// backend is part of the deployment's configuration, surfaced to
		// clients via /v2/version, never swapped while serving.
		tensor.Use(tensor.NewFast(*workers))
	}

	if *victimMB > 0 {
		experiment.ConfigureVictimStore(0, int64(*victimMB)<<20)
	}
	cfg := service.Config{
		Seed:                   *seed,
		Workers:                *workers,
		MaxConcurrentJobs:      *jobs,
		DefaultSessionBudget:   *budget,
		SessionTTL:             *sessionTTL,
		MaxSessionsPerVictim:   *maxSessions,
		MaxCachedArtifactBytes: int64(*artifactMB) << 20,
		DataDir:                *dataDir,
		StateDir:               *stateDir,
		JournalFsync:           *journalFsync,
		MaxJournalBytes:        int64(*journalMB) << 20,
	}
	if (*nodeID == "") != (*peers == "") {
		return errors.New("cluster mode needs both -node-id and -peers")
	}
	if *peers != "" {
		members, err := cluster.ParseMembers(*peers)
		if err != nil {
			return err
		}
		// The ring seed is the service seed: peers must already share it
		// (victims are derived from it), so it doubles as the placement
		// seed without another flag to keep in sync.
		ring, err := cluster.New(members, *ringVNodes, *seed)
		if err != nil {
			return err
		}
		if _, ok := ring.Lookup(*nodeID); !ok {
			return fmt.Errorf("-node-id %q is not in -peers", *nodeID)
		}
		cfg.Cluster = &service.ClusterConfig{NodeID: *nodeID, Ring: ring}
		fmt.Fprintf(os.Stderr, "xbarserve: cluster node %q of %d (ring %.12s, %d vnodes)\n",
			*nodeID, ring.Len(), ring.Hash(), ring.VNodes())
	}
	var svc *service.Service
	if *stateDir != "" {
		var rec *service.Recovery
		var err error
		svc, rec, err = service.Open(cfg)
		if err != nil {
			return err
		}
		if rec.TornJournalTail {
			fmt.Fprintln(os.Stderr, "xbarserve: journal had a torn tail (crash mid-append); intact records recovered")
		}
		fmt.Fprintf(os.Stderr, "xbarserve: recovered %d job(s) from %s (%d re-launched, %d failed, %d spilled artifact(s))\n",
			rec.ReplayedJobs, *stateDir, rec.Relaunched, rec.FailedJobs, rec.SpilledArtifacts)
	} else {
		svc = service.New(cfg)
	}
	defer svc.Close()

	for _, name := range strings.Split(*victims, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var kind dataset.Kind
		switch name {
		case "mnist":
			kind = dataset.MNIST
		case "cifar10":
			kind = dataset.CIFAR10
		default:
			return fmt.Errorf("unknown victim kind %q (want mnist or cifar10)", name)
		}
		fmt.Fprintf(os.Stderr, "xbarserve: training victim %q...\n", name)
		v, err := service.TrainVictim(service.VictimSpec{
			Name: name, Kind: kind, Seed: *seed,
			TrainN: *trainN, TestN: *testN, Epochs: *epochs,
			DataDir: *dataDir,
		})
		if err != nil {
			return err
		}
		if err := svc.Register(v); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "xbarserve: victim %q ready (%d inputs, %d classes)\n",
			name, v.Inputs(), v.Outputs())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := newServer(svc.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "xbarserve: listening on %s\n", ln.Addr())

	if *smoke {
		err := runSmoke(ctx, svc, baseURL(ln.Addr()))
		shutdownErr := shutdown(srv, errCh)
		if err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		return shutdownErr
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "xbarserve: shutting down")
	return shutdown(srv, errCh)
}

// Read deadlines. A client that declares a body and then stalls would
// otherwise hold its connection, and whatever it sent, for as long as
// it likes. readTimeout covers the whole request, body included, and is
// sized so that the largest body the service accepts (128 MiB) still
// arrives from a client sending at least ~1.07 MiB/s (128 MiB in two
// minutes). The read deadline ends with the request: once the body has
// been read to its end, net/http clears it as it starts watching the
// connection for a disconnect, so it never cuts a handler's wait. There
// is no write deadline: a launch with ?wait=1 writes its response only
// when the job finishes, which can take minutes.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
)

// newServer wraps h in the server xbarserve listens with.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

func shutdown(srv *http.Server, errCh chan error) error {
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// baseURL renders a dialable http URL for the bound listener (an
// unspecified listen IP like ":8080" dials back over loopback).
func baseURL(a net.Addr) string {
	tcp, ok := a.(*net.TCPAddr)
	if !ok {
		return "http://" + a.String()
	}
	host := tcp.IP.String()
	if tcp.IP == nil || tcp.IP.IsUnspecified() {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("http://%s", net.JoinHostPort(host, fmt.Sprint(tcp.Port)))
}

// runSmoke drives the freshly booted server through the client SDK —
// the deployment self-check: version handshake, victim listing, a
// budgeted session issuing single and batched queries, and the stats
// snapshot. Output goes to stdout (one "smoke:" line per probe); any
// failure aborts with the offending error.
func runSmoke(ctx context.Context, svc *service.Service, url string) error {
	c, err := client.New(url)
	if err != nil {
		return err
	}
	v, err := c.Version(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: protocol %s, %s tensor backend, %d experiments (registry %.12s)\n",
		v.Version, v.TensorBackend, v.Experiments, v.ExperimentsHash)

	victims, err := c.Victims(ctx)
	if err != nil {
		return err
	}
	if len(victims) == 0 {
		return errors.New("no victims registered")
	}
	name := victims[0].Name
	fmt.Printf("smoke: %d victim(s); probing %q (%d inputs, %d classes)\n",
		len(victims), name, victims[0].Inputs, victims[0].Outputs)

	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{
		Victim: name, Mode: api.ModeRawOutput, MeasurePower: true, Budget: 5,
	})
	if err != nil {
		return err
	}
	victim, err := svc.Victim(name)
	if err != nil {
		return err
	}
	input := victim.Test().X.Row(0)
	single, err := sess.Query(ctx, input)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: query ok (label %d, power %.4g, %d/%d budget spent)\n",
		single.Label, single.Power, single.Queries, sess.Info().Budget)

	// A batch larger than the remaining budget: the admitted prefix must
	// succeed, the tail must carry the typed budget error.
	inputs := make([][]float64, 6)
	for i := range inputs {
		inputs[i] = victim.Test().X.Row(i % victim.Test().Len())
	}
	batch, err := sess.QueryBatch(ctx, inputs)
	if err != nil {
		return err
	}
	served, refused := 0, 0
	for _, r := range batch.Results {
		if r.Error == nil {
			served++
		} else if r.Error.Code == api.CodeBudgetExhausted {
			refused++
		} else {
			return fmt.Errorf("unexpected batch outcome error: %v", r.Error)
		}
	}
	if served != 4 || refused != 2 {
		return fmt.Errorf("batch accounting: served %d refused %d, want 4/2", served, refused)
	}
	// The first batch outcome must equal a fresh session's same query —
	// the batched path serves the same bytes as the scalar one.
	if batch.Results[0].Label != single.Label {
		return fmt.Errorf("batch label %d != single-query label %d", batch.Results[0].Label, single.Label)
	}
	fmt.Printf("smoke: batch of %d ok in one round trip (%d served, %d refused, remaining %d)\n",
		len(inputs), served, refused, batch.Remaining)

	if err := sess.Close(ctx); err != nil {
		return err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: stats ok (%d queries in %d array reads, max batch %d)\n",
		st.Victims[0].Requests, st.Victims[0].Batches, st.Victims[0].MaxBatch)
	fmt.Println("smoke: ok")
	return nil
}
