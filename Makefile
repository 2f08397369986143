# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test lint lint-fix fmt bench-smoke bench-test bench-pairs smoke cluster-smoke fuzz

build:
	$(GO) build ./...

# test reaches both modules: bench/ is its own, so the root `go test ./...`
# does not descend into it.
test: bench-test
	$(GO) test ./...

# lint runs the repo's own invariant suite (see internal/analysis and the
# README "Static analysis" section) plus go vet. CI layers pinned
# staticcheck and govulncheck on top; they are not required locally.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/alpalint ./...

# lint-fix applies alpalint's mechanical rewrites (sorted map iteration,
# capacity hints) in place, then re-runs the suite.
lint-fix:
	$(GO) run ./cmd/alpalint -fix ./...
	$(GO) run ./cmd/alpalint ./...

fmt:
	gofmt -w .

# bench-smoke runs every benchmark of the root package and of the simulator
# (internal/netsim) once, so that none of them rots.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x . ./internal/netsim

# bench-test runs the benchmark module's own tests (unit tests, the smoke
# pass held to BENCHMARK.json, the seed-1 golden).
bench-test:
	cd bench && $(GO) test ./...

# bench-pairs runs alternating benchmark pairs of two revisions, each
# exported outside the checkout, and judges every end-to-end metric pair by
# pair (scripts/bench-pairs.sh), e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=tier_zipf SEED=7 PAIRS=10
CHANGE ?= HEAD
PAIRS ?= 10
RUN_SECONDS ?= 30
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" -a -n "$(SEED)" || { echo "usage: make bench-pairs PARENT=<rev> [CHANGE=HEAD] WORKLOAD=<name> SEED=<n> [PAIRS=10] [RUN_SECONDS=30]" >&2; exit 2; }
	bash scripts/bench-pairs.sh $(PARENT) $(CHANGE) $(WORKLOAD) $(SEED) $(PAIRS) $(RUN_SECONDS)

# smoke runs CI's three plan-service load smokes: the closed loop with
# batches, fault overlays and the churn timeline; the binary wire format;
# and bursty open arrivals against an SLO server.
smoke:
	$(GO) run ./cmd/loadgen -smoke -batch -faults -churn -clients 64 -requests 40 -spread 4 -json BENCH_service.ci.json
	$(GO) run ./cmd/loadgen -smoke -wire binary -clients 64 -requests 40 -spread 4
	$(GO) run ./cmd/loadgen -smoke -arrivals bursty -rate 1200 -clients 60 -duration 2s

# cluster-smoke is CI's distributed tier scaling step: 1/2/4/8-node
# in-process tiers, failing unless the 8-node tier plans at least 6x fewer
# computations per request than one node, or when a working-set plan ends
# proven (~15 s; writes BENCH_cluster.ci.json). Throughput is reported, not
# gated.
cluster-smoke:
	$(GO) run ./cmd/loadgen -cluster -json BENCH_cluster.ci.json

# fuzz is CI's fuzz smoke and the one list of fuzz targets: each runs for
# 10 s, one after another.
fuzz:
	$(GO) test -run xxx -fuzz FuzzFaultedOverlay -fuzztime 10s ./internal/mesh
	$(GO) test -run xxx -fuzz FuzzDecomposeMatchesReference -fuzztime 10s ./internal/sharding
	$(GO) test -run xxx -fuzz FuzzParseFaultSet -fuzztime 10s ./internal/mesh
	$(GO) test -run xxx -fuzz FuzzBroadcastChainMatchesReference -fuzztime 10s ./internal/collective
	$(GO) test -run xxx -fuzz FuzzRunMatchesHeap -fuzztime 10s ./internal/netsim
	$(GO) test -run xxx -fuzz FuzzLatticesMatchHeap -fuzztime 10s ./internal/netsim
	$(GO) test -run xxx -fuzz FuzzDegradedPlan -fuzztime 10s ./internal/resharding
	$(GO) test -run xxx -fuzz FuzzEnsembleMatchesReference -fuzztime 10s ./internal/schedule
	$(GO) test -run xxx -fuzz FuzzDFSMatchesReference -fuzztime 10s ./internal/schedule
	$(GO) test -run xxx -fuzz FuzzClosedFormMatchesBruteForce -fuzztime 10s ./internal/schedule
	$(GO) test -run xxx -fuzz FuzzTargetMatchesReference -fuzztime 10s ./internal/schedule
	$(GO) test -run xxx -fuzz FuzzBinaryDecode -fuzztime 10s ./internal/service
	$(GO) test -run xxx -fuzz FuzzPlanRequestV2 -fuzztime 10s ./internal/service
	$(GO) test -run xxx -fuzz FuzzPlanResponseJSON -fuzztime 10s ./internal/service
	$(GO) test -run xxx -fuzz FuzzPlanRequestJSON -fuzztime 10s ./internal/service
	$(GO) test -run xxx -fuzz FuzzParsePlanResponse -fuzztime 10s ./internal/service
	$(GO) test -run xxx -fuzz FuzzDecodePlanRequest -fuzztime 10s ./internal/service
	# A snapshot input is ~1.4 KB and each run builds two servers, so the
	# default 60 s minimization of each new input would eat the whole window.
	$(GO) test -run xxx -fuzz FuzzRestore -fuzztime 10s -fuzzminimizetime 200x ./internal/cluster
