GO ?= go
BENCH_JSON ?= BENCH_24.json
COVER_PROFILE ?= cover.out

.PHONY: build test race vet xbarvet lint api-baseline goldens goldens-check fmt fmt-check bench bench-json bench-compare bench-harness chaos cluster fuzz cover examples test-fast cross ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The fast-backend matrix leg: replays the tensor-consuming suites with
# the fast GEMM backend active (-tensor.fast, installed by each suite's
# tensortest TestMain). Equivalence pins and goldens switch to their
# tolerance mode automatically (tensor.Active().BitExact()); the tensor
# package's own equivalence/fuzz suite runs both backends in one pass
# and needs no flag.
test-fast:
	$(GO) test ./internal/experiment/ ./internal/nn/ ./internal/surrogate/ -tensor.fast -count=1

# Full suite under the race detector — the honesty check for the
# concurrent serving layer (internal/service) and the parallel
# experiment engine. -short skips the two full-registry deterministic
# replay tests (golden bit-identity, engine-wide worker invariance):
# they are ~10x slower under race and carry no concurrency value beyond
# what the dedicated store/pool/service race tests cover; the plain
# `make test` and `make cover` jobs run them in full. Slower than
# `make test`; CI runs it as its own job.
race:
	$(GO) test -race -short -timeout 20m ./...

vet:
	$(GO) vet ./...

# Builds the project vet tool (internal/analyze via cmd/xbarvet): the
# detrand, rngsplit, hotalloc and apisurface analyzers, run through the
# standard `go vet -vettool` driver.
xbarvet:
	$(GO) build -o bin/xbarvet ./cmd/xbarvet

# Machine-checks the project contracts: no ambient randomness/time/env
# in deterministic packages, no shared rng.Source captured by pool
# closures, no allocation in //xbar:hotpath functions, and no breaking
# change to the api/ wire surface vs api/testdata/surface.json.
# Suppressions need a written reason: //xbar:allow <reason>.
lint: xbarvet goldens-check
	$(GO) vet -vettool=bin/xbarvet ./...

# Regenerates the committed api-surface baseline. The analyzer refuses
# to overwrite a baseline recorded at the same version: bump api.Major
# (breaking) or api.Minor (additive) first, then run this and commit
# api/testdata/surface.json with the change.
api-baseline: xbarvet
	$(GO) vet -vettool=bin/xbarvet -apisurface.write ./api

# Regenerates testdata/golden/*.txt from the current runners — the only
# sanctioned way to change a golden (replays the whole registry at
# goldenOpts, deterministic at any worker count). Run it when an
# experiment's published numbers deliberately change, then commit the
# diff alongside the change that caused it.
goldens:
	$(GO) test ./internal/experiment/ -run TestGoldenBitIdentity -update-goldens -count=1

# Proves the committed goldens are exactly what `make goldens` produces
# today: regenerates in place and fails on any diff. Part of `make
# lint`, so CI rejects a golden edited by hand or left stale after a
# runner change.
goldens-check: goldens
	git diff --exit-code -- internal/experiment/testdata/golden

fmt:
	gofmt -w .

# Fails (with the offending file list) when any file is unformatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Short benchmark sweep: the kernel microbenchmarks (µs-scale, so 200
# iterations stay fast). The experiment macro-benchmarks (Table1, Fig4,
# their *Workers parallel variants, ...) take seconds per iteration —
# run those explicitly, e.g.:
#   go test -run XXX -bench 'Table1' -benchtime 3x .
bench:
	$(GO) test -run XXX -bench 'CrossbarMVM|CrossbarPower|NormExtraction|FGSM' -benchtime 200x .

# Runs the kernel microbenchmarks (many iterations), the exact kernels
# down both their AVX and Go paths, the two macro benchmarks the perf
# trajectory tracks (few iterations — they take seconds each) and the
# service's concurrent serving pair, each three times with allocation
# counts, and records them into $(BENCH_JSON):
# benchjson folds the repeats into median, min, max and n, and writes
# the machine and git revision header. Commit the result so every PR
# leaves a BENCH_<n>.json data point. The test runs write to
# intermediate files so a failing benchmark fails the target instead of
# being swallowed by the conversion pipe.
bench-json:
	$(GO) test -run XXX -bench 'GemmTA$$|GemmTB$$|GemmTAFast$$|GemmTBFast$$|TrainEpoch|CrossbarMVM|CrossbarPower|NormExtraction|FGSM$$|ReadF64Rows$$' -benchtime 200x -count 3 -benchmem . > /tmp/xbarsec-bench-micro.txt
	$(GO) test -run XXX -bench 'SurrogateTrain|Table1$$|Table1Fast$$|ServeBatchQPS' -benchtime 3x -count 3 -benchmem . > /tmp/xbarsec-bench-macro.txt
	$(GO) test -run XXX -bench 'VictimStoreColdFig3$$|VictimStoreWarmFig3$$|VictimStoreCrossRunnerCold$$|VictimStoreCrossRunnerWarm$$|RegistryReplayWarm$$|ServiceColdRestart$$' -benchtime 3x -count 3 -benchmem . > /tmp/xbarsec-bench-store.txt
	$(GO) test -run XXX -bench 'GemmSweep' -benchtime 50x -count 3 -benchmem . > /tmp/xbarsec-bench-sweep.txt
	$(GO) test -run XXX -bench 'Serving' -count 3 -benchmem ./internal/service/ > /tmp/xbarsec-bench-serving.txt
	$(GO) test -run XXX -bench 'ExactKernels' -benchtime 200x -count 3 -benchmem ./internal/tensor/ > /tmp/xbarsec-bench-exact.txt
	cat /tmp/xbarsec-bench-micro.txt /tmp/xbarsec-bench-macro.txt /tmp/xbarsec-bench-store.txt /tmp/xbarsec-bench-sweep.txt /tmp/xbarsec-bench-serving.txt /tmp/xbarsec-bench-exact.txt | $(GO) run ./cmd/benchjson > $(BENCH_JSON)
	@cat $(BENCH_JSON)

# Compares two BENCH_*.json files: per shared benchmark the two median
# ms/op and their ratio, plus a Welch t-test over the repeats where both
# entries keep them (significant below p = 0.05; entries recorded before
# the samples field read "unresolved"). For example:
#   make bench-compare OLD=BENCH_18.json NEW=BENCH_19.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# Vets and self-tests the end-to-end benchmark harness. xbarbench/ is a
# module of its own (it replaces xbarsec with this checkout), so the
# root `go build ./...` never compiles it, yet it implements
# sidechannel.PowerMeter and calls the service API: this target makes
# an API change that breaks the harness fail here, not in a benchmark
# run. Offline, a few seconds.
bench-harness:
	$(GO) -C xbarbench vet ./...
	$(GO) -C xbarbench test ./...

# Fault-injection chaos suite under the race detector: the WAL and
# fault-injection packages in full, the spill store, the service
# durability tests (kill-and-restart bit-identity, torn journal tail,
# corrupt spill quarantine, spill files from another build, journal-full
# refusal, panicking job), and the SDK retry taxonomy/WaitJob-through-503
# tests. Everything here exercises crash paths the plain suite only
# touches incidentally; CI runs it as its own job.
chaos:
	$(GO) test -race -timeout 10m ./internal/wal/ ./internal/faultinject/ ./internal/memo/
	$(GO) test -race -timeout 10m -run 'TestChaos' ./internal/service/
	$(GO) test -race -timeout 10m -run 'TestRetry|TestWaitJob|TestBackoff' ./client/

# Multi-node suite under the race detector: the ring package in full,
# the two-in-process-node service tests (redirect end-to-end
# bit-identity, session pinning, peer fetch with Merkle verification,
# metrics) including the chaos variant that kills the owning node
# mid-job, and the SDK redirect-following tests. CI runs it as its own
# job.
cluster:
	$(GO) test -race -timeout 10m ./internal/cluster/
	$(GO) test -race -timeout 10m -run 'TestCluster|TestChaosCluster|TestMetrics|TestArtifact' ./internal/service/
	$(GO) test -race -timeout 10m -run 'TestRedirect' ./client/

# Coverage-guided fuzzing, each stdlib fuzz target for a fixed 30 s
# (go test accepts one -fuzz target per run): the binary query-body
# parser (the server's first contact with a binary request), the spill
# file read and its record check, journal replay over arbitrary bytes,
# the fast dot kernels against the reference chain, the exact kernels'
# AVX paths against their Go loops, bit for bit, and the -peers
# membership parser. Each target starts from its f.Add seeds plus any
# committed corpus under testdata/fuzz/<target>; a failure writes the
# crashing input there, ready to commit as a regression seed. CI runs it
# as its own job. FuzzSpillRecord does real file I/O per run, so its
# minimization of each new input is capped at 10 runs; uncapped, the
# first few new inputs would use up the whole 30 s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseF64Rows$$' -fuzztime 30s ./api/
	$(GO) test -run '^$$' -fuzz '^FuzzSpillRecord$$' -fuzztime 30s -fuzzminimizetime 10x ./internal/memo/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 30s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzFastDotEquiv$$' -fuzztime 30s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzExactKernels$$' -fuzztime 30s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzParseMembers$$' -fuzztime 30s ./internal/cluster/

# Builds and RUNS every example end to end (each takes a second or two;
# the campaign example boots the HTTP service and drives it through the
# client SDK), so SDK-consuming examples can't silently rot. CI runs
# this as its own step.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/powerprofile
	$(GO) run ./examples/surrogatetheft
	$(GO) run ./examples/robustness
	$(GO) run ./examples/defenses
	$(GO) run ./examples/campaign

# Full-suite coverage profile plus the per-package summary; CI runs this
# as its own job and archives nothing — the one-line total is the
# trend signal.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) -covermode=atomic ./...
	$(GO) tool cover -func=$(COVER_PROFILE) | tail -n 1

# Cross-architecture build, offline: vets the tree for arm64 and builds
# it for 386, so an assembly kernel without its portable stub (or a
# stub whose signature drifted) fails here rather than on another
# machine. Nothing runs; no emulator is needed.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

ci: build vet lint fmt-check test bench-harness cross
