// Command loadgen is a closed-loop, multi-client load generator for the
// plan server (cmd/planserver): each client issues plan/autotune requests
// back-to-back from a deterministic request mix over shapes, sharding
// specs and hardware topologies, and the run reports throughput, latency
// percentiles (p50/p95/p99), coalescing and backpressure counts.
//
// Modes:
//
//	loadgen -addr http://host:8100 -clients 64 -requests 100
//	loadgen -smoke -json BENCH_service.json
//	loadgen -smoke -batch -json BENCH_service.json
//	loadgen -cluster -json BENCH_cluster.json
//
// -smoke starts an in-process server on a loopback port, runs a fixed
// closed-loop load, verifies that served plans are byte-identical to the
// direct resharding path and that the LRU cache respected its capacity,
// and writes the benchmark JSON — the CI perf gate.
//
// -batch adds /v2/plan:batch traffic to the mix: each batch request plans
// all stage boundaries of a pipeline job at once, and its latency
// percentiles are recorded alongside the single-request mix. With -verify
// (or -smoke) every batch item is also checked byte-identical to the same
// boundary served individually by /v2/plan.
//
// -wire binary negotiates the binary wire format (see the service
// package's wire.go) on every response, after first proving one response
// decodes identically over both formats.
//
// -churn appends a continuous-churn phase after the main load: a
// deterministic fault/heal timeline (-churn-scenario, default "flap")
// advances every -churn-period while closed-loop clients replan one
// boundary through /v2/plan with whatever overlay is active. The phase
// measures the server's replan counters and, under -smoke, fails unless
// every degraded step was served warm (no cold fills) — see churn.go.
//
// -cluster benchmarks the distributed plan-serving tier instead: see
// cluster.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	alpacomm "alpacomm"
	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

// template is one request shape of the deterministic mix.
type template struct {
	name     string
	autotune bool
	topology service.TopologyRef
	shape    []int
	dtype    string
	src, dst service.Endpoint
}

// requestMix returns the fixed slate the generator draws from: a spread of
// topologies (p3 / dgx-a100 / mixed), tensor shapes and spec pairs. With
// few templates and many clients, duplicate keys are common — exactly the
// coalescing- and cache-heavy traffic a production planner sees.
func requestMix() []template {
	return []template{
		{name: "p3-small", topology: service.TopologyRef{Name: "p3", Hosts: 2},
			shape: []int{256, 256},
			src:   service.Endpoint{Mesh: "2x2@0", Spec: "S01R"}, dst: service.Endpoint{Mesh: "2x2@4", Spec: "S0R"}},
		{name: "p3-large", topology: service.TopologyRef{Name: "p3", Hosts: 2},
			shape: []int{1024, 1024},
			src:   service.Endpoint{Mesh: "2x2@0", Spec: "S01R"}, dst: service.Endpoint{Mesh: "2x2@4", Spec: "RS0"}},
		{name: "p3-wide", topology: service.TopologyRef{Name: "p3", Hosts: 4},
			shape: []int{1024, 512},
			src:   service.Endpoint{Mesh: "2x4@0", Spec: "S01R"}, dst: service.Endpoint{Mesh: "2x4@8", Spec: "S0R"}},
		{name: "dgx-mid", topology: service.TopologyRef{Name: "dgx-a100", Hosts: 2},
			shape: []int{512, 512}, dtype: "fp16",
			src: service.Endpoint{Mesh: "2x4@0", Spec: "S01R"}, dst: service.Endpoint{Mesh: "2x4@8", Spec: "S0R"}},
		{name: "dgx-large", topology: service.TopologyRef{Name: "dgx-a100", Hosts: 2},
			shape: []int{2048, 1024},
			src:   service.Endpoint{Mesh: "2x4@0", Spec: "S01R"}, dst: service.Endpoint{Mesh: "2x4@8", Spec: "RS1"}},
		{name: "mixed-tier", topology: service.TopologyRef{Name: "mixed", Hosts: 3, Oversubscription: 1.5},
			shape: []int{256, 512},
			src:   service.Endpoint{Mesh: "2x2@0", Spec: "S01R"}, dst: service.Endpoint{Mesh: "2x2@4", Spec: "S0R"}},
		{name: "p3-autotune", autotune: true, topology: service.TopologyRef{Name: "p3", Hosts: 2},
			shape: []int{512, 512},
			src:   service.Endpoint{Mesh: "2x2@0", Spec: "S01R"}, dst: service.Endpoint{Mesh: "2x2@4", Spec: "S0R"}},
		{name: "mixed-autotune", autotune: true, topology: service.TopologyRef{Name: "mixed", Hosts: 3, Oversubscription: 1.5},
			shape: []int{256, 256},
			src:   service.Endpoint{Mesh: "2x2@0", Spec: "S01R"}, dst: service.Endpoint{Mesh: "2x2@4", Spec: "RS0"}},
	}
}

// faultMix returns the degradation overlays -faults churn traffic cycles
// through. Every overlay touches hosts 0/1 or the 0-1 link, which every
// mix template's boundary involves — so each degraded request re-keys
// away from its healthy twin and the cache partitions visibly.
func faultMix() []*service.FaultsRef {
	return []*service.FaultsRef{
		{Hosts: []service.HostFaultRef{{Host: 0, NICScale: 0.5}}},
		{Hosts: []service.HostFaultRef{{Host: 1, NICScale: 0.25, IntraScale: 0.5}}},
		{Links: []service.LinkFaultRef{{A: 0, B: 1, BandwidthScale: 0.5, ExtraLatencySeconds: 20e-6}}},
	}
}

// batchTemplate is one /v2/plan:batch request shape: the boundaries of a
// pipeline job on one named topology.
type batchTemplate struct {
	name string
	req  alpacomm.BatchPlanServiceRequest
}

// batchMix returns the pipeline-job batches -batch traffic draws from:
// GPT-style chains of congruent boundaries, so one batch is exactly the
// traffic shape the endpoint exists for.
func batchMix() []batchTemplate {
	pipelineReq := func(topo service.TopologyRef, stride int, boundaries int, shape []int, mesh string, seed int64) alpacomm.BatchPlanServiceRequest {
		req := alpacomm.BatchPlanServiceRequest{Topology: topo}
		for s := 0; s < boundaries; s++ {
			req.Items = append(req.Items, service.BatchPlanItem{
				Shape: shape,
				Src:   service.Endpoint{Mesh: fmt.Sprintf("%s@%d", mesh, stride*s), Spec: "S01R"},
				Dst:   service.Endpoint{Mesh: fmt.Sprintf("%s@%d", mesh, stride*(s+1)), Spec: "S0R"},
				Options: service.PlanOptions{
					Seed: seed,
				},
			})
		}
		return req
	}
	return []batchTemplate{
		{name: "p3-gpt-pipeline", req: pipelineReq(service.TopologyRef{Name: "p3", Hosts: 4}, 4, 3, []int{512, 512}, "2x2", 1)},
		{name: "dgx-pipeline", req: pipelineReq(service.TopologyRef{Name: "dgx-a100", Hosts: 3}, 8, 2, []int{1024, 512}, "2x4", 1)},
	}
}

// clientStats is one worker's tally, merged after the run.
type clientStats struct {
	ok, rejected, errs int
	coalesced          int
	latencies          []float64 // seconds, successful requests only
	batchAttempts      int
	batchOK            int
	batchItems         int
	batchLatencies     []float64 // seconds, successful batch requests only
	faultAttempts      int
	faultOK            int
	firstErr           string
}

// report is the benchmark JSON (BENCH_service.json in CI).
type report struct {
	Clients         int     `json:"clients"`
	Requests        int     `json:"requests"`
	OK              int     `json:"ok"`
	Rejected        int     `json:"rejected"`
	Errors          int     `json:"errors"`
	Coalesced       int     `json:"coalesced"`
	DurationSeconds float64 `json:"duration_seconds"`
	// ThroughputRPS counts served (200) responses only; rejected and
	// errored requests are excluded so overload cannot inflate the figure.
	ThroughputRPS float64 `json:"throughput_rps"`
	// OfferedRPS is the closed-loop offered load including rejections.
	OfferedRPS       float64 `json:"offered_rps"`
	LatencyP50Millis float64 `json:"latency_p50_ms"`
	LatencyP95Millis float64 `json:"latency_p95_ms"`
	LatencyP99Millis float64 `json:"latency_p99_ms"`
	LatencyMaxMillis float64 `json:"latency_max_ms"`
	// Batch fields cover the /v2/plan:batch slice of the mix (-batch);
	// zero when batch traffic is disabled. One batch request plans a whole
	// pipeline job, so its latency is reported separately from the
	// single-plan percentiles above.
	BatchRequests         int     `json:"batch_requests,omitempty"`
	BatchOK               int     `json:"batch_ok,omitempty"`
	BatchItems            int     `json:"batch_items,omitempty"`
	BatchLatencyP50Millis float64 `json:"batch_latency_p50_ms,omitempty"`
	BatchLatencyP95Millis float64 `json:"batch_latency_p95_ms,omitempty"`
	BatchLatencyP99Millis float64 `json:"batch_latency_p99_ms,omitempty"`
	BatchLatencyMaxMillis float64 `json:"batch_latency_max_ms,omitempty"`
	// Fault fields cover the degraded-topology churn slice of the mix
	// (-faults): /v2/plan requests carrying a fault overlay. Zero when
	// fault churn is disabled.
	FaultRequests int `json:"fault_requests,omitempty"`
	FaultOK       int `json:"fault_ok,omitempty"`
	// Churn fields cover the -churn phase: a fault/heal timeline walked
	// through /v2/plan after the main load, with the server's replan
	// counters (warm/cold fill split) measured over the phase alone.
	ChurnScenario string                  `json:"churn_scenario,omitempty"`
	ChurnSteps    int                     `json:"churn_steps,omitempty"`
	ChurnPasses   int                     `json:"churn_passes,omitempty"`
	ChurnRequests int                     `json:"churn_requests,omitempty"`
	ChurnOK       int                     `json:"churn_ok,omitempty"`
	ChurnReplan   *resharding.ReplanStats `json:"churn_replan,omitempty"`
	// OpenLoop rows cover the open-loop distribution-driven mode (-open /
	// -open-sim): per arrival mix, coordinated-omission-corrected
	// percentiles and the offered-vs-achieved gap, with and without the
	// SLO admission controller. Simulated rows are byte-identical across
	// reruns with the same seed.
	OpenLoop        []openLoopRow `json:"open_loop,omitempty"`
	CacheHits       int           `json:"cache_hits"`
	CacheMisses     int           `json:"cache_misses"`
	CacheEntries    int           `json:"cache_entries"`
	CacheEvictions  int           `json:"cache_evictions"`
	CacheCapacity   int           `json:"cache_capacity"`
	ServerCoalesced int64         `json:"server_coalesced"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8100", "plan server base URL")
	clients := flag.Int("clients", 64, "concurrent closed-loop clients")
	requests := flag.Int("requests", 100, "requests per client (count mode)")
	duration := flag.Duration("duration", 0, "run for a fixed duration instead of a fixed count")
	seed := flag.Int64("seed", 1, "request-mix seed (the mix is deterministic per seed)")
	autotuneFrac := flag.Float64("autotune-fraction", 0.05, "fraction of requests sent to /v2/autotune")
	batch := flag.Bool("batch", false, "add /v2/plan:batch pipeline-job requests to the mix and report their latency percentiles")
	batchFrac := flag.Float64("batch-fraction", 0.15, "fraction of requests sent to /v2/plan:batch when -batch is set")
	faults := flag.Bool("faults", false, "add degraded-topology churn to the mix: /v2/plan requests carrying fault overlays alongside their healthy twins")
	faultsFrac := flag.Float64("faults-fraction", 0.2, "fraction of plan requests carrying a fault overlay when -faults is set")
	churnMode := flag.Bool("churn", false, "after the main load, walk a fault/heal timeline through /v2/plan and verify the server replans warm (no cold fills)")
	churnScenario := flag.String("churn-scenario", mesh.ChurnFlap, "churn timeline: a registry scenario (flap, cascade, brownout-recovery) or an inline spec like \"@0 link:0-1:down | @500ms\"")
	churnPeriod := flag.Duration("churn-period", 150*time.Millisecond, "wall time each timeline step stays active in -churn mode")
	churnWorkers := flag.Int("churn-clients", 8, "concurrent closed-loop clients during the churn phase")
	churnPasses := flag.Int("churn-passes", 2, "times the churn timeline repeats (>1 exercises heal-back cache hits)")
	spread := flag.Int("spread", 1, "distinct Options.Seed values per template (>1 multiplies distinct cache keys, exercising LRU eviction)")
	jsonPath := flag.String("json", "", "write the benchmark report JSON to this file")
	verify := flag.Bool("verify", false, "verify served plans byte-identical to the direct resharding path")
	smoke := flag.Bool("smoke", false, "self-contained CI smoke: in-process server, fixed load, verification")
	smokeCapacity := flag.Int("smoke-cache-capacity", 64, "in-process server LRU capacity in -smoke mode")
	wire := flag.String("wire", "json", "wire format for responses: json or binary (binary also cross-checks one response against the JSON path)")
	clusterMode := flag.Bool("cluster", false, "run the distributed-tier benchmark: in-process 1/2/4/8-node tiers, byte-identity + cross-node singleflight checks, warm-restart hit rate (writes BENCH_cluster.json)")
	clusterWindow := flag.Duration("cluster-measure", 3*time.Second, "measured window per node count in -cluster mode")
	open := flag.Bool("open", false, "open-loop mode: distribution-driven agents dispatch /v2/plan on a fixed schedule and report coordinated-omission-corrected percentiles")
	openSim := flag.Bool("open-sim", false, "deterministic open-loop simulation: replay the arrival schedule through a serve-path model with the real SLO controller on a simulated clock (byte-identical BENCH rows per seed)")
	openMix := flag.String("open-mix", "poisson,bursty,diurnal", "comma-separated arrival mixes for open-loop modes (-open uses the first)")
	openRate := flag.Float64("open-rate", 40000, "total offered arrival rate (requests per second) in open-loop modes")
	openAgents := flag.Int("open-agents", 1600, "open-loop agents (each owns one connection and a derived-seed arrival stream)")
	openDur := flag.Duration("open-duration", 2*time.Second, "open-loop schedule horizon")
	sloBudget := flag.Duration("slo-budget", 25*time.Millisecond, "p99 budget for the SLO admission controller (-open-sim rows; -open -smoke server)")
	flag.Parse()
	if *spread < 1 {
		*spread = 1
	}
	if *clusterMode {
		runClusterBench(*jsonPath, *clusterWindow)
		return
	}
	if *openSim {
		runOpenSimMode(*jsonPath, parseMixes(*openMix), *openRate, *openAgents, *openDur, uint64(*seed), *sloBudget)
		return
	}

	base := *addr
	var srv *alpacomm.PlanServer
	if *smoke {
		cfg := alpacomm.PlanServerConfig{
			Cache:     alpacomm.NewLRUReshardCache(*smokeCapacity),
			PlanQueue: 256,
		}
		if *open {
			// Open-loop smoke exists to exercise the admission controller
			// under distribution-driven load.
			cfg.SLO = &service.SLOConfig{P99Budget: *sloBudget}
		}
		srv = alpacomm.NewPlanServer(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("listen: %v", err)
		}
		defer ln.Close()
		go func() { _ = (&http.Server{Handler: srv}).Serve(ln) }()
		base = "http://" + ln.Addr().String()
		*verify = true
		// Open-loop live rows are wall-clock measurements; never merge
		// them into the committed deterministic report by default.
		if *jsonPath == "" && !*open {
			*jsonPath = "BENCH_service.json"
		}
		fmt.Printf("loadgen: smoke server on %s (cache capacity %d)\n", base, *smokeCapacity)
	}

	mix := requestMix()
	batches := []batchTemplate(nil)
	if *batch {
		batches = batchMix()
	}
	overlays := []*service.FaultsRef(nil)
	if *faults {
		overlays = faultMix()
	}
	var clientOpts []alpacomm.PlanClientOption
	switch *wire {
	case "json":
	case "binary":
		clientOpts = append(clientOpts, alpacomm.WithBinaryWire())
	default:
		fail("unknown -wire %q (want json or binary)", *wire)
	}
	client := alpacomm.NewPlanClient(base, nil, clientOpts...)
	ctx := context.Background()

	if *wire == "binary" {
		// One cross-format sanity check before the load: the same request
		// served over JSON and binary must decode identically.
		verifyWireParity(ctx, base, client, mix[0])
	}

	if *open {
		mixName := parseMixes(*openMix)[0]
		fmt.Printf("loadgen: open loop: %s mix, %d agents, %.0f offered rps for %v against %s\n",
			mixName, *openAgents, *openRate, *openDur, base)
		row := runOpenLive(ctx, client, mixName, *openRate, *openAgents, *openDur, uint64(*seed), *sloBudget)
		if *jsonPath != "" {
			mergeOpenRows(*jsonPath, []openLoopRow{row})
			fmt.Printf("open-loop row merged into %s\n", *jsonPath)
		}
		return
	}

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	fmt.Printf("loadgen: %d clients, mix of %d templates (spread %d), target %s\n",
		*clients, len(mix), *spread, base)
	start := time.Now()
	stats := make([]clientStats, *clients)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(ctx, client, mix, &stats[c], clientConfig{
				rng:          rand.New(rand.NewSource(*seed ^ int64(c+1)*-0x61c8864680b583eb)),
				requests:     *requests,
				deadline:     deadline,
				autotuneFrac: *autotuneFrac,
				batches:      batches,
				batchFrac:    *batchFrac,
				overlays:     overlays,
				faultsFrac:   *faultsFrac,
				spread:       *spread,
			})
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var churn *churnResult
	if *churnMode {
		fmt.Printf("loadgen: churn phase: scenario %q, %d clients, %v per step, %d pass(es)\n",
			*churnScenario, *churnWorkers, *churnPeriod, *churnPasses)
		var err error
		churn, err = runChurnPhase(ctx, client, *churnScenario, *churnPeriod, *churnWorkers, *churnPasses)
		if err != nil {
			fail("churn phase: %v", err)
		}
	}

	// Merge.
	var all clientStats
	for _, s := range stats {
		all.ok += s.ok
		all.rejected += s.rejected
		all.errs += s.errs
		all.coalesced += s.coalesced
		all.latencies = append(all.latencies, s.latencies...)
		all.batchAttempts += s.batchAttempts
		all.batchOK += s.batchOK
		all.batchItems += s.batchItems
		all.batchLatencies = append(all.batchLatencies, s.batchLatencies...)
		all.faultAttempts += s.faultAttempts
		all.faultOK += s.faultOK
		if all.firstErr == "" {
			all.firstErr = s.firstErr
		}
	}
	sort.Float64s(all.latencies)
	sort.Float64s(all.batchLatencies)
	total := all.ok + all.rejected + all.errs + all.batchOK

	sstats, err := client.Stats(ctx)
	if err != nil {
		fail("stats: %v", err)
	}

	rep := report{
		Clients:          *clients,
		Requests:         total,
		OK:               all.ok,
		Rejected:         all.rejected,
		Errors:           all.errs,
		Coalesced:        all.coalesced,
		DurationSeconds:  elapsed,
		ThroughputRPS:    float64(all.ok) / elapsed,
		OfferedRPS:       float64(total) / elapsed,
		LatencyP50Millis: percentileMillis(all.latencies, 50),
		LatencyP95Millis: percentileMillis(all.latencies, 95),
		LatencyP99Millis: percentileMillis(all.latencies, 99),
		LatencyMaxMillis: percentileMillis(all.latencies, 100),

		BatchRequests:         all.batchAttempts,
		BatchOK:               all.batchOK,
		BatchItems:            all.batchItems,
		BatchLatencyP50Millis: percentileMillis(all.batchLatencies, 50),
		BatchLatencyP95Millis: percentileMillis(all.batchLatencies, 95),
		BatchLatencyP99Millis: percentileMillis(all.batchLatencies, 99),
		BatchLatencyMaxMillis: percentileMillis(all.batchLatencies, 100),
		FaultRequests:         all.faultAttempts,
		FaultOK:               all.faultOK,
		CacheHits:             sstats.Cache.Hits,
		CacheMisses:           sstats.Cache.Misses,
		CacheEntries:          sstats.Cache.Entries,
		CacheEvictions:        sstats.Cache.Evictions,
		CacheCapacity:         sstats.Cache.Capacity,
		ServerCoalesced:       sstats.Plan.Coalesced + sstats.Autotune.Coalesced + sstats.Batch.Coalesced,
	}
	if churn != nil {
		rep.ChurnScenario = churn.scenario
		rep.ChurnSteps = churn.steps
		rep.ChurnPasses = churn.passes
		rep.ChurnRequests = churn.ok + churn.rejected + churn.errs
		rep.ChurnOK = churn.ok
		rep.ChurnReplan = &churn.delta
	}
	printReport(rep)
	if all.firstErr != "" {
		fmt.Printf("first error: %s\n", all.firstErr)
	}

	if *jsonPath != "" {
		// Closed-loop and open-loop runs share the artifact: carry any
		// committed open_loop rows forward, mirroring mergeOpenRows.
		if prev, err := os.ReadFile(*jsonPath); err == nil {
			var old report
			if json.Unmarshal(prev, &old) == nil {
				rep.OpenLoop = old.OpenLoop
			}
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail("marshal report: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fail("write report: %v", err)
		}
		fmt.Printf("report written to %s\n", *jsonPath)
	}

	failed := false
	if *verify {
		if n := verifyPlans(ctx, client, mix); n > 0 {
			fmt.Printf("VERIFY FAILED: %d template(s) diverged from the direct resharding path\n", n)
			failed = true
		} else {
			fmt.Println("verify: served plans byte-identical to the direct resharding path")
		}
		if len(batches) > 0 {
			if n := verifyBatches(ctx, client, batches); n > 0 {
				fmt.Printf("VERIFY FAILED: %d batch item(s) diverged from /v2/plan\n", n)
				failed = true
			} else {
				fmt.Println("verify: /v2/plan:batch items byte-identical to per-boundary /v2/plan")
			}
		}
		if len(overlays) > 0 {
			if n := verifyFaults(ctx, client, mix, overlays); n > 0 {
				fmt.Printf("VERIFY FAILED: %d degraded request(s) violated the fault-overlay contract\n", n)
				failed = true
			} else {
				fmt.Println("verify: degraded plans re-keyed, deterministic, and never faster than healthy")
			}
		}
	}
	if *smoke && len(batches) > 0 && all.batchOK == 0 {
		fmt.Println("SMOKE FAILED: no /v2/plan:batch request succeeded")
		failed = true
	}
	if *smoke && len(overlays) > 0 && all.faultOK == 0 {
		fmt.Println("SMOKE FAILED: no degraded-topology request succeeded")
		failed = true
	}
	if churn != nil {
		if churn.ok == 0 {
			fmt.Println("CHURN FAILED: no churn-phase request succeeded")
			if churn.firstErr != "" {
				fmt.Printf("first churn error: %s\n", churn.firstErr)
			}
			failed = true
		}
		if *smoke && churn.errs > 0 {
			fmt.Printf("SMOKE FAILED: %d churn-phase request errors (first: %s)\n", churn.errs, churn.firstErr)
			failed = true
		}
		warm := churn.delta.WarmIdentity + churn.delta.WarmSearch + churn.delta.WarmRejected
		if *smoke && warm == 0 {
			fmt.Println("SMOKE FAILED: churn phase produced no warm replans")
			failed = true
		}
		// The healthy incumbent is planned before the first fault arrives,
		// so no churn step may ever fall back to a cold search.
		if *smoke && churn.delta.Cold > 0 {
			fmt.Printf("SMOKE FAILED: %d cold replan(s) during churn despite a cached healthy incumbent\n", churn.delta.Cold)
			failed = true
		}
	}
	if rep.CacheCapacity > 0 && rep.CacheEntries > rep.CacheCapacity {
		fmt.Printf("LRU VIOLATION: %d entries > capacity %d\n", rep.CacheEntries, rep.CacheCapacity)
		failed = true
	}
	if ac := sstats.AutotuneCache; ac.Capacity > 0 && ac.Entries > ac.Capacity {
		fmt.Printf("LRU VIOLATION (autotune cache): %d entries > capacity %d\n", ac.Entries, ac.Capacity)
		failed = true
	}
	if *smoke {
		if all.errs > 0 {
			fmt.Printf("SMOKE FAILED: %d request errors\n", all.errs)
			failed = true
		}
		if rep.CacheHits+int(rep.ServerCoalesced) == 0 {
			fmt.Println("SMOKE FAILED: duplicate requests neither coalesced nor hit the cache")
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

type clientConfig struct {
	rng          *rand.Rand
	requests     int
	deadline     time.Time
	autotuneFrac float64
	batches      []batchTemplate
	batchFrac    float64
	overlays     []*service.FaultsRef
	faultsFrac   float64
	spread       int
}

// runClient is one closed-loop worker: next request starts when the
// previous response lands.
func runClient(ctx context.Context, client *alpacomm.PlanClient, mix []template, out *clientStats, cfg clientConfig) {
	planTemplates := make([]template, 0, len(mix))
	autoTemplates := make([]template, 0, len(mix))
	for _, t := range mix {
		if t.autotune {
			autoTemplates = append(autoTemplates, t)
		} else {
			planTemplates = append(planTemplates, t)
		}
	}
	for i := 0; cfg.deadline.IsZero() && i < cfg.requests || !cfg.deadline.IsZero() && time.Now().Before(cfg.deadline); i++ {
		if len(cfg.batches) > 0 && cfg.rng.Float64() < cfg.batchFrac {
			bt := cfg.batches[cfg.rng.Intn(len(cfg.batches))]
			out.batchAttempts++
			begin := time.Now()
			resp, err := client.PlanBatch(ctx, &bt.req)
			switch e := err.(type) {
			case nil:
				out.batchOK++
				out.batchItems += len(resp.Items)
				out.batchLatencies = append(out.batchLatencies, time.Since(begin).Seconds())
			case *service.OverloadedError:
				out.rejected++
				backoff := e.RetryAfter
				if backoff > 50*time.Millisecond {
					backoff = 50 * time.Millisecond
				}
				time.Sleep(backoff)
			default:
				out.errs++
				if out.firstErr == "" {
					out.firstErr = err.Error()
				}
			}
			continue
		}
		var t template
		var overlay *service.FaultsRef
		autotune := false
		if len(cfg.overlays) > 0 && cfg.rng.Float64() < cfg.faultsFrac {
			// Degraded-topology churn: the same template the healthy mix
			// plans, with a fault overlay — exercising replan-on-degrade
			// and the healthy/degraded cache partition under load.
			t = planTemplates[cfg.rng.Intn(len(planTemplates))]
			overlay = cfg.overlays[cfg.rng.Intn(len(cfg.overlays))]
			out.faultAttempts++
		} else if autotune = len(autoTemplates) > 0 && cfg.rng.Float64() < cfg.autotuneFrac; autotune {
			t = autoTemplates[cfg.rng.Intn(len(autoTemplates))]
		} else {
			t = planTemplates[cfg.rng.Intn(len(planTemplates))]
		}
		opts := service.PlanOptions{Seed: 1 + int64(cfg.rng.Intn(cfg.spread))}
		begin := time.Now()
		var err error
		var coalesced bool
		if autotune {
			var resp *alpacomm.AutotuneServiceResponse
			resp, err = client.AutotuneV2(ctx, &alpacomm.AutotuneServiceRequest{
				Topology: t.topology, Shape: t.shape, DType: t.dtype,
				Src: t.src, Dst: t.dst, Options: opts,
			})
			if err == nil {
				coalesced = resp.Coalesced
			}
		} else {
			var resp *alpacomm.PlanServiceResponse
			resp, err = client.PlanV2(ctx, &alpacomm.PlanServiceRequest{
				Topology: t.topology, Shape: t.shape, DType: t.dtype,
				Src: t.src, Dst: t.dst, Options: opts, Faults: overlay,
			})
			if err == nil {
				coalesced = resp.Coalesced
			}
		}
		switch e := err.(type) {
		case nil:
			out.ok++
			if overlay != nil {
				out.faultOK++
			}
			out.latencies = append(out.latencies, time.Since(begin).Seconds())
			if coalesced {
				out.coalesced++
			}
		case *service.OverloadedError:
			out.rejected++
			// Honor the backoff hint, capped so a closed loop keeps
			// exercising the admission path.
			backoff := e.RetryAfter
			if backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			}
			time.Sleep(backoff)
		default:
			out.errs++
			if out.firstErr == "" {
				out.firstErr = err.Error()
			}
		}
	}
}

// verifyWireParity serves one template over both wire formats and fails
// the run unless the decoded responses are identical — the quick parity
// proof -wire=binary runs before trusting the binary path under load.
func verifyWireParity(ctx context.Context, base string, binClient *alpacomm.PlanClient, t template) {
	req := &alpacomm.PlanServiceRequest{
		Topology: t.topology, Shape: t.shape, DType: t.dtype,
		Src: t.src, Dst: t.dst,
		Options: service.PlanOptions{Seed: 1},
	}
	jsonResp, err := alpacomm.NewPlanClient(base, nil).PlanV2(ctx, req)
	if err != nil {
		fail("wire parity (json): %v", err)
	}
	binResp, err := binClient.PlanV2(ctx, req)
	if err != nil {
		fail("wire parity (binary): %v", err)
	}
	// Coalesced depends on request timing, not wire format.
	jsonResp.Coalesced, binResp.Coalesced = false, false
	if !reflect.DeepEqual(jsonResp, binResp) {
		fail("wire parity: JSON and binary responses differ:\n json %+v\n bin  %+v", jsonResp, binResp)
	}
	fmt.Println("loadgen: wire parity verified (json == binary)")
}

// verifyPlans replays each plan template once and compares the served plan
// against resharding.NewPlan computed locally with the service's
// normalized options: senders, launch order, makespan, ops — byte for
// byte. Returns the number of diverging templates.
func verifyPlans(ctx context.Context, client *alpacomm.PlanClient, mix []template) int {
	reg := alpacomm.DefaultTopologyRegistry()
	bad := 0
	for _, t := range mix {
		if t.autotune {
			continue
		}
		resp, err := client.PlanV2(ctx, &alpacomm.PlanServiceRequest{
			Topology: t.topology, Shape: t.shape, DType: t.dtype,
			Src: t.src, Dst: t.dst, Options: service.PlanOptions{Seed: 1},
		})
		if err != nil {
			fmt.Printf("verify %s: request: %v\n", t.name, err)
			bad++
			continue
		}
		plan, sim, err := directPlan(reg, t)
		if err != nil {
			fmt.Printf("verify %s: direct path: %v\n", t.name, err)
			bad++
			continue
		}
		senders := make([]int, len(plan.Task.Units))
		for i := range senders {
			senders[i] = plan.SenderOf[i]
		}
		switch {
		case !reflect.DeepEqual(resp.Senders, senders):
			fmt.Printf("verify %s: senders differ: served %v, direct %v\n", t.name, resp.Senders, senders)
			bad++
		case !reflect.DeepEqual(resp.Order, plan.Order):
			fmt.Printf("verify %s: order differs: served %v, direct %v\n", t.name, resp.Order, plan.Order)
			bad++
		case resp.MakespanSeconds != sim.Makespan || resp.NumOps != sim.NumOps:
			fmt.Printf("verify %s: timing differs: served (%.9g, %d ops), direct (%.9g, %d ops)\n",
				t.name, resp.MakespanSeconds, resp.NumOps, sim.Makespan, sim.NumOps)
			bad++
		}
	}
	return bad
}

// verifyBatches replays each batch template once and compares every item
// against the same boundary served individually by /v2/plan: senders,
// order, makespan, ops — byte for byte. It also checks the batch reported
// at most one equivalence class per distinct cache key. Returns the number
// of diverging items.
func verifyBatches(ctx context.Context, client *alpacomm.PlanClient, batches []batchTemplate) int {
	bad := 0
	for _, bt := range batches {
		resp, err := client.PlanBatch(ctx, &bt.req)
		if err != nil {
			fmt.Printf("verify %s: batch request: %v\n", bt.name, err)
			bad++
			continue
		}
		if len(resp.Items) != len(bt.req.Items) {
			fmt.Printf("verify %s: %d items returned for %d requested\n", bt.name, len(resp.Items), len(bt.req.Items))
			bad++
			continue
		}
		keys := map[string]bool{}
		itemErrs := 0
		for i, item := range resp.Items {
			if item.Error != nil {
				fmt.Printf("verify %s item %d: %s: %s\n", bt.name, i, item.Error.Code, item.Error.Message)
				bad++
				itemErrs++
				continue
			}
			keys[item.Plan.Key] = true
			single, err := client.PlanV2(ctx, &alpacomm.PlanServiceRequest{
				Topology: bt.req.Topology,
				Shape:    bt.req.Items[i].Shape,
				DType:    bt.req.Items[i].DType,
				Src:      bt.req.Items[i].Src,
				Dst:      bt.req.Items[i].Dst,
				Options:  bt.req.Items[i].Options,
			})
			if err != nil {
				fmt.Printf("verify %s item %d: /v2/plan: %v\n", bt.name, i, err)
				bad++
				continue
			}
			switch {
			case !reflect.DeepEqual(item.Plan.Senders, single.Senders):
				fmt.Printf("verify %s item %d: senders differ: batch %v, single %v\n", bt.name, i, item.Plan.Senders, single.Senders)
				bad++
			case !reflect.DeepEqual(item.Plan.Order, single.Order):
				fmt.Printf("verify %s item %d: order differs: batch %v, single %v\n", bt.name, i, item.Plan.Order, single.Order)
				bad++
			case item.Plan.MakespanSeconds != single.MakespanSeconds || item.Plan.NumOps != single.NumOps:
				fmt.Printf("verify %s item %d: timing differs: batch (%.9g, %d ops), single (%.9g, %d ops)\n",
					bt.name, i, item.Plan.MakespanSeconds, item.Plan.NumOps, single.MakespanSeconds, single.NumOps)
				bad++
			}
		}
		// Distinct counts every parse-OK class including errored ones, so
		// the cross-check is only meaningful when every item of this
		// template planned.
		if itemErrs == 0 && resp.Distinct != len(keys) {
			fmt.Printf("verify %s: batch reports %d equivalence classes, items span %d keys\n", bt.name, resp.Distinct, len(keys))
			bad++
		}
	}
	return bad
}

// verifyFaults replays each (plan template, overlay) pair once and checks
// the fault-overlay contract: the degraded response carries a different
// cache key than the healthy one, is deterministic across repeats, and —
// since every overlay only slows hardware down — never reports a smaller
// makespan than the healthy plan. The makespan comparison is across two
// independently searched plans; it is stable here because the templates
// and overlays are fixed, planning is deterministic, and every overlay
// degrades the involved hardware by at least 2x (the plan-for-plan
// guarantee is fuzz-tested in internal/resharding). Returns the number
// of violations.
func verifyFaults(ctx context.Context, client *alpacomm.PlanClient, mix []template, overlays []*service.FaultsRef) int {
	bad := 0
	for _, t := range mix {
		if t.autotune {
			continue
		}
		healthy, err := client.PlanV2(ctx, &alpacomm.PlanServiceRequest{
			Topology: t.topology, Shape: t.shape, DType: t.dtype,
			Src: t.src, Dst: t.dst, Options: service.PlanOptions{Seed: 1},
		})
		if err != nil {
			fmt.Printf("verify %s: healthy request: %v\n", t.name, err)
			bad++
			continue
		}
		for oi, ov := range overlays {
			req := &alpacomm.PlanServiceRequest{
				Topology: t.topology, Shape: t.shape, DType: t.dtype,
				Src: t.src, Dst: t.dst, Options: service.PlanOptions{Seed: 1},
				Faults: ov,
			}
			degraded, err := client.PlanV2(ctx, req)
			if err != nil {
				fmt.Printf("verify %s overlay %d: %v\n", t.name, oi, err)
				bad++
				continue
			}
			again, err := client.PlanV2(ctx, req)
			if err != nil {
				fmt.Printf("verify %s overlay %d: repeat: %v\n", t.name, oi, err)
				bad++
				continue
			}
			switch {
			case degraded.Key == healthy.Key:
				fmt.Printf("verify %s overlay %d: degraded request shares the healthy cache key\n", t.name, oi)
				bad++
			case degraded.MakespanSeconds < healthy.MakespanSeconds:
				fmt.Printf("verify %s overlay %d: degraded makespan %.9g beats healthy %.9g\n",
					t.name, oi, degraded.MakespanSeconds, healthy.MakespanSeconds)
				bad++
			case again.Key != degraded.Key || again.MakespanSeconds != degraded.MakespanSeconds ||
				!reflect.DeepEqual(again.Senders, degraded.Senders) || !reflect.DeepEqual(again.Order, degraded.Order):
				fmt.Printf("verify %s overlay %d: degraded plan not deterministic across repeats\n", t.name, oi)
				bad++
			}
		}
	}
	return bad
}

// directPlan computes the template's plan without the service: same
// registry topology, same deterministic options.
func directPlan(reg *alpacomm.TopologyRegistry, t template) (*alpacomm.ReshardPlan, *alpacomm.ReshardResult, error) {
	topo, err := reg.Build(t.topology.Name, alpacomm.TopologyParams{
		Hosts: t.topology.Hosts, Oversubscription: t.topology.Oversubscription,
	})
	if err != nil {
		return nil, nil, err
	}
	shape, err := tensor.NewShape(t.shape...)
	if err != nil {
		return nil, nil, err
	}
	dt, err := service.ParseDType(t.dtype)
	if err != nil {
		return nil, nil, err
	}
	src, err := mesh.ParseSlice(topo, t.src.Mesh)
	if err != nil {
		return nil, nil, err
	}
	dst, err := mesh.ParseSlice(topo, t.dst.Mesh)
	if err != nil {
		return nil, nil, err
	}
	task, err := sharding.NewTask(shape, dt, src, sharding.MustParse(t.src.Spec), dst, sharding.MustParse(t.dst.Spec))
	if err != nil {
		return nil, nil, err
	}
	// Plan with the exact options the server derives from the wire
	// request, so the comparison is byte-for-byte.
	opts, err := service.NormalizedOptions(service.PlanOptions{Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	plan, err := resharding.NewPlan(task, opts)
	if err != nil {
		return nil, nil, err
	}
	sim, err := plan.Simulate()
	if err != nil {
		return nil, nil, err
	}
	return plan, sim, nil
}

// percentileMillis returns the p-th percentile (nearest-rank) in
// milliseconds of an ascending latency slice in seconds.
func percentileMillis(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx] * 1e3
}

func printReport(r report) {
	fmt.Printf("\n%d requests in %.2fs — %.0f served req/s, %.0f offered (%d clients)\n",
		r.Requests, r.DurationSeconds, r.ThroughputRPS, r.OfferedRPS, r.Clients)
	fmt.Printf("  ok %d, rejected(429) %d, errors %d, coalesced %d\n",
		r.OK, r.Rejected, r.Errors, r.Coalesced)
	fmt.Printf("  latency p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		r.LatencyP50Millis, r.LatencyP95Millis, r.LatencyP99Millis, r.LatencyMaxMillis)
	if r.BatchRequests > 0 {
		fmt.Printf("  batch: %d requests (%d ok, %d items planned)\n", r.BatchRequests, r.BatchOK, r.BatchItems)
		fmt.Printf("  batch latency p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
			r.BatchLatencyP50Millis, r.BatchLatencyP95Millis, r.BatchLatencyP99Millis, r.BatchLatencyMaxMillis)
	}
	if r.FaultRequests > 0 {
		fmt.Printf("  degraded churn: %d requests (%d ok)\n", r.FaultRequests, r.FaultOK)
	}
	if r.ChurnReplan != nil {
		fmt.Printf("  churn timeline %q: %d steps x %d passes, %d requests (%d ok)\n",
			r.ChurnScenario, r.ChurnSteps, r.ChurnPasses, r.ChurnRequests, r.ChurnOK)
		d := r.ChurnReplan
		fmt.Printf("  churn replans: %d cache hits, %d warm identity, %d warm search, %d warm rejected, %d invalid, %d cold\n",
			d.CacheHits, d.WarmIdentity, d.WarmSearch, d.WarmRejected, d.WarmInvalid, d.Cold)
	}
	fmt.Printf("  server cache: %d hits, %d misses, %d entries (capacity %d), %d evictions\n",
		r.CacheHits, r.CacheMisses, r.CacheEntries, r.CacheCapacity, r.CacheEvictions)
}
