# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test lint lint-fix fmt bench-smoke bench-test smoke fuzz

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

bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .

# bench-test runs the benchmark module's own tests (unit tests, the smoke
# pass held to BENCHMARK.json, the seed-1 golden).
bench-test:
	cd bench && $(GO) test ./...

# smoke runs CI's three plan-service load smokes: the closed loop with
# batches, fault overlays and the churn timeline; the binary wire format;
# and bursty open arrivals against an SLO server.
smoke:
	$(GO) run ./cmd/loadgen -smoke -batch -faults -churn -clients 64 -requests 40 -spread 4 -json BENCH_service.ci.json
	$(GO) run ./cmd/loadgen -smoke -wire binary -clients 64 -requests 40 -spread 4
	$(GO) run ./cmd/loadgen -smoke -arrivals bursty -rate 1200 -clients 60 -duration 2s

# fuzz is CI's fuzz smoke and the one list of fuzz targets: each runs for
# 10 s, one after another.
fuzz:
	$(GO) test -run xxx -fuzz FuzzFaultedOverlay -fuzztime 10s ./internal/mesh
	$(GO) test -run xxx -fuzz FuzzParseFaultSet -fuzztime 10s ./internal/mesh
	$(GO) test -run xxx -fuzz FuzzBroadcastChainMatchesReference -fuzztime 10s ./internal/collective
	$(GO) test -run xxx -fuzz FuzzDegradedPlan -fuzztime 10s ./internal/resharding
	$(GO) test -run xxx -fuzz FuzzEnsembleMatchesReference -fuzztime 10s ./internal/schedule
	$(GO) test -run xxx -fuzz FuzzDFSMatchesReference -fuzztime 10s ./internal/schedule
	$(GO) test -run xxx -fuzz FuzzClosedFormMatchesBruteForce -fuzztime 10s ./internal/schedule
	$(GO) test -run xxx -fuzz FuzzBinaryDecode -fuzztime 10s ./internal/service
	$(GO) test -run xxx -fuzz FuzzPlanRequestV2 -fuzztime 10s ./internal/service
