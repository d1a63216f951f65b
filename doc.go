// Package xbarsec reproduces "Enhancing Adversarial Attacks on
// Single-Layer NVM Crossbar-Based Neural Networks with Power Consumption
// Information" (Cory Merkel, SOCC 2022; arXiv:2207.02764) as a
// stdlib-only Go library.
//
// The implementation lives under internal/: a dense tensor kernel, a
// numerical linear algebra package, synthetic MNIST/CIFAR-like dataset
// generators (plus parsers for the real formats), single-layer neural
// network training, an NVM crossbar simulator with a power model and
// first-order non-idealities, the attacker's power probe and 1-norm
// extraction, evasion attacks, the power-augmented surrogate trainer, and
// one declarative grid spec per table/figure of the paper on the
// deterministic grid engine (internal/experiment/engine), registered in
// a name→spec registry that the CLI, the service layer and the HTTP API
// all dispatch through.
//
// Entry points:
//
//   - api/           — the PUBLIC versioned wire protocol: every HTTP
//     request/response type, the typed {code, message, detail} error
//     envelope, and the protocol version constants
//   - client/        — the PUBLIC Go SDK (client.New(baseURL)): typed
//     access to every endpoint, batched queries (QueryBatch: N oracle
//     queries in one round trip), experiment launch/poll, and a
//     major-version handshake
//   - cmd/xbarattack — CLI that runs any registered experiment by name
//     (-format table|csv|json; the -workers flag bounds concurrency;
//     0 = all CPUs, 1 = serial), plus a `campaign` sweep served through
//     internal/service; -server URL runs remotely through the SDK
//   - cmd/xbarserve  — HTTP front end for the concurrent attack-campaign
//     service (internal/service): multi-tenant victim registry, budgeted
//     attacker sessions (idle-TTL eviction, per-victim caps), batched
//     serving, cached campaign jobs, and server-side experiment
//     jobs (/v2/experiments); -smoke self-checks through the SDK
//   - examples/      — runnable walkthroughs of the public workflow
//   - bench_test.go  — one benchmark per table/figure plus victim-store
//     and kernel microbenchmarks, serial and parallel
//
// The evaluation engine is batched and concurrent, and both axes are
// deterministic: batched crossbar calls (internal/crossbar's
// OutputBatch, TotalCurrentBatch, PowerBatch, ForwardBatch,
// PredictBatch) are bit-identical to sequential scalar calls, and the
// grid engine fans cells across internal/pool workers with every cell's
// randomness derived from Options.Seed via rng.Source.Split/SplitN
// keyed by the cell's identity — so for a fixed seed the output is
// bit-identical at every worker count. Victims train at most once per
// (config, stream, scale) per process through a shared singleflight
// store.
//
// See DESIGN.md for the system inventory and concurrency model, README.md
// for usage, and EXPERIMENTS.md for paper-vs-measured comparisons.
package xbarsec
