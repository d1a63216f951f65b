// Campaign: host a victim network behind the attack-campaign service's
// HTTP API, hammer it from several concurrent attacker sessions through
// the Go client SDK — including the batched query path that serves a
// whole input slice in one round trip — and run a cached
// extraction/evasion campaign against it. The multi-tenant serving
// layer of this repository, driven exactly as a remote attacker would
// drive it.
//
// Run with:
//
//	go run ./examples/campaign
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/dataset"
	"xbarsec/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	ctx := context.Background()

	// Train a demo victim (synthetic MNIST-like, linear head — the
	// paper's Section IV configuration), register it with a service, and
	// expose the service over a real HTTP listener.
	victim, err := service.TrainVictim(service.VictimSpec{
		Kind: dataset.MNIST, Seed: 1, TrainN: 300, TestN: 100, Epochs: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc := service.New(service.Config{Seed: 1})
	defer svc.Close()
	if err := svc.Register(victim); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	// The SDK negotiates the protocol version on first use and then
	// speaks typed api structs end to end.
	c, err := client.New("http://" + ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	v, err := c.Version(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server speaks protocol %s (%d experiments registered)\n", v.Version, v.Experiments)
	fmt.Printf("victim %q registered: %d inputs, %d classes\n",
		victim.Name(), victim.Inputs(), victim.Outputs())

	// Eight attackers share the victim. Each gets its own session — its
	// own disclosure mode, query budget and noise stream — and submits
	// its queries as ONE batched round trip, which the service serves
	// as one batched array read. Budget admission stays
	// exact: a 40-input batch against a budget of 25 yields exactly 25
	// responses, the rest carry the typed budget_exhausted error.
	const attackers = 8
	var wg sync.WaitGroup
	spent := make([]int, attackers)
	test := victim.Test()
	for a := 0; a < attackers; a++ {
		sess, err := c.OpenSession(ctx, api.OpenSessionRequest{
			Victim: "mnist", Mode: api.ModeRawOutput, MeasurePower: true, Budget: 25,
		})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(a int, sess *client.Session) {
			defer wg.Done()
			inputs := make([][]float64, 40)
			for i := range inputs {
				inputs[i], _ = test.Sample(i % test.Len())
			}
			batch, err := sess.QueryBatch(ctx, inputs)
			if err != nil {
				log.Fatal(err)
			}
			spent[a] = batch.Queries
		}(a, sess)
	}
	wg.Wait()
	fmt.Printf("per-session queries admitted (budget 25): %v\n", spent)

	st, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving: %d queries served in %d array reads (largest read %d)\n",
		st.Victims[0].Requests, st.Victims[0].Batches, st.Victims[0].MaxBatch)

	// A campaign job: collect 150 raw-output+power queries, train a
	// power-regularized surrogate (λ = 0.004), attack the victim with
	// surrogate-crafted FGSM. Deterministic given its spec — rerunning
	// it is a server-side cache hit.
	spec := api.CampaignRequest{
		Victim: "mnist", Mode: api.ModeRawOutput, Seed: 7,
		Queries: 150, Lambda: 0.004,
	}
	res, err := c.RunCampaign(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: clean %.3f -> adversarial %.3f (surrogate acc %.3f, %d oracle queries)\n",
		res.CleanAccuracy, res.AdvAccuracy, res.SurrogateAccuracy, res.QueriesCharged)
	again, err := c.RunCampaign(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay served from cache: %v (bit-identical: %v)\n",
		again.Cached, again.AdvAccuracy == res.AdvAccuracy)
}
