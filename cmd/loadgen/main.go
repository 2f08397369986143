// Command loadgen is the load generator for the plan server
// (cmd/planserver). It has one loop (drive.go): N agents, each with a
// seeded arrival process and a seeded request stream, issue a request
// whenever one falls due, and every run reports throughput, coalescing and
// backpressure counts, and latency percentiles measured two ways — from
// the time the request fell due and from dispatch. A run is three values:
//
//   - where a request goes and what it asks: the deterministic mix of
//     plan/autotune requests over shapes, sharding specs and topologies
//     (-batch adds /v2/plan:batch pipeline jobs, -faults fault overlays on
//     the same boundaries, -spread multiplies the distinct cache keys);
//     after it, with -churn, one boundary replanned while a fault/heal
//     timeline advances (churn.go); with -cluster, a working set routed
//     by owner affinity over 1/2/4/8-node tiers (cluster.go);
//
//   - when the next request is due: -arrivals closed (the default: at the
//     previous completion, honouring Retry-After) or poisson | bursty |
//     diurnal at -rate requests per second over all -clients, fixed
//     before the first request and never waiting for the server;
//
//   - when to stop: -requests per agent, or -duration.
//
//     loadgen -addr http://host:8100 -clients 64 -requests 100
//     loadgen -smoke -batch -faults -churn -json BENCH_service.ci.json
//     loadgen -smoke -arrivals bursty -rate 1200 -clients 60 -duration 2s
//     loadgen -cluster -json BENCH_cluster.ci.json
//
// -smoke starts an in-process server on a loopback port (with the SLO
// admission controller on under open arrivals), verifies that served
// plans are byte-identical to the direct resharding path — with -batch,
// every batch item against the same boundary served by /v2/plan; with
// -faults, the fault-overlay contract — and that the LRU cache respected
// its capacity, and fails on any request error. Under -churn it also
// fails unless every churn step was served what a fresh server serves for
// its request. A report is written only where -json names a path.
//
// -wire binary negotiates the binary wire format (see the service
// package's wire.go) on every response, after first proving one response
// decodes identically over both formats.
//
// -cluster exits non-zero unless the single node plans at least
// minClusterScaling times the 8-node tier's computations per request
// (cluster.go).
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
	"time"

	alpacomm "alpacomm"
	"alpacomm/internal/loadmodel"
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

// The shape of the mix and of the -smoke server. Constants, not flags:
// each had one value in use.
const (
	autotuneFraction   = 0.05 // of plan requests, sent to /v2/autotune
	batchFraction      = 0.15 // of requests, sent to /v2/plan:batch under -batch
	faultsFraction     = 0.2  // of plan requests carrying an overlay under -faults
	smokeCacheCapacity = 64   // in-process server LRU capacity
	// sloBudget is the p99 budget of the -smoke server's admission
	// controller (open arrivals only).
	sloBudget = 25 * time.Millisecond
)

// template is one request shape of the deterministic mix.
type template struct {
	name     string
	autotune bool
	topology service.TopologyRef
	shape    []int
	dtype    string
	src, dst service.Endpoint
}

// planRequest is the template's /v2/plan request under the given option
// seed and fault overlay (nil = healthy).
func (t template) planRequest(seed int64, overlay *service.FaultsRef) *service.PlanRequest {
	return &service.PlanRequest{
		Topology: t.topology, Shape: t.shape, DType: t.dtype,
		Src: t.src, Dst: t.dst,
		Options: service.PlanOptions{Seed: seed}, Faults: overlay,
	}
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

// report is the -json run report.
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
	// OfferedRPS is the offered load including rejections.
	OfferedRPS float64 `json:"offered_rps"`
	// Latency* measure from dispatch, DueLatency* from the time the
	// request fell due (coordinated omission corrected). Under closed
	// arrivals a request is due the moment its agent is free, so the two
	// are equal.
	Arrivals            string  `json:"arrivals,omitempty"`
	LatencyP50Millis    float64 `json:"latency_p50_ms"`
	LatencyP95Millis    float64 `json:"latency_p95_ms"`
	LatencyP99Millis    float64 `json:"latency_p99_ms"`
	LatencyMaxMillis    float64 `json:"latency_max_ms"`
	DueLatencyP50Millis float64 `json:"due_latency_p50_ms,omitempty"`
	DueLatencyP99Millis float64 `json:"due_latency_p99_ms,omitempty"`
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
	// through /v2/plan after the main load. ChurnMismatches counts replies
	// that differ from a fresh server's answer to the same request.
	ChurnScenario   string `json:"churn_scenario,omitempty"`
	ChurnSteps      int    `json:"churn_steps,omitempty"`
	ChurnPasses     int    `json:"churn_passes,omitempty"`
	ChurnRequests   int    `json:"churn_requests,omitempty"`
	ChurnOK         int    `json:"churn_ok,omitempty"`
	ChurnMismatches int    `json:"churn_mismatches,omitempty"`
	// OpenLoop rows cover open arrivals: per arrival mix,
	// coordinated-omission-corrected percentiles and the offered-vs-achieved
	// gap. A live run under open arrivals writes its one row.
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
	clients := flag.Int("clients", 64, "concurrent agents, one connection each")
	requests := flag.Int("requests", 100, "requests per agent (count mode)")
	duration := flag.Duration("duration", 0, "run for a fixed duration instead of a fixed count")
	seed := flag.Int64("seed", 1, "run seed: agent i's arrivals and requests are a function of (seed, i) alone")
	arrivals := flag.String("arrivals", "closed", "arrival process: closed (next request due at the previous completion) or poisson, bursty, diurnal (open: scheduled at -rate, never waiting for the server)")
	rate := flag.Float64("rate", 1000, "total offered arrival rate over all agents, requests per second (open arrivals)")
	batch := flag.Bool("batch", false, "add /v2/plan:batch pipeline-job requests to the mix and report their latency percentiles")
	faults := flag.Bool("faults", false, "add degraded-topology churn to the mix: /v2/plan requests carrying fault overlays alongside their healthy twins")
	churnMode := flag.Bool("churn", false, "after the main load, walk a fault/heal timeline through /v2/plan and verify every step serves what a fresh server serves")
	churnScenario := flag.String("churn-scenario", mesh.ChurnFlap, "churn timeline: a registry scenario (flap, cascade, brownout-recovery) or an inline spec like \"@0 link:0-1:down | @500ms\"")
	spread := flag.Int("spread", 1, "distinct Options.Seed values per template (>1 multiplies distinct cache keys, exercising LRU eviction)")
	jsonPath := flag.String("json", "", "write the benchmark report JSON to this file")
	verify := flag.Bool("verify", false, "verify served plans byte-identical to the direct resharding path")
	smoke := flag.Bool("smoke", false, "self-contained CI smoke: in-process server, verification, fail on any request error")
	wire := flag.String("wire", "json", "wire format for responses: json or binary (binary also cross-checks one response against the JSON path)")
	clusterMode := flag.Bool("cluster", false, "run the distributed-tier scaling benchmark instead: in-process 1/2/4/8-node tiers, 8-vs-1 throughput")
	flag.Parse()
	if *spread < 1 {
		*spread = 1
	}
	if *clusterMode {
		runClusterBench(*jsonPath, uint64(*seed))
		return
	}
	if buildProcess(*arrivals, 1, 0) == nil {
		fail("unknown -arrivals %q (want closed, poisson, bursty or diurnal)", *arrivals)
	}
	open := *arrivals != "closed"
	if open && *rate <= 0 {
		fail("-arrivals %s needs a positive -rate", *arrivals)
	}
	if *clients < 1 {
		fail("-clients must be at least 1")
	}

	base := *addr
	if *smoke {
		cfg := alpacomm.PlanServerConfig{
			Cache:     alpacomm.NewLRUReshardCache(smokeCacheCapacity),
			PlanQueue: 256,
		}
		if open {
			// Open arrivals exist to exercise the admission controller; a
			// closed loop throttles itself and never needs it.
			cfg.SLO = &service.SLOConfig{P99Budget: sloBudget}
		} else {
			// A controller that has just degraded or shed may rightly answer
			// a cold verification request degraded or not at all, so only
			// the controller-less smoke verifies by default.
			*verify = true
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("listen: %v", err)
		}
		defer ln.Close()
		go func() { _ = (&http.Server{Handler: alpacomm.NewPlanServer(cfg)}).Serve(ln) }()
		base = "http://" + ln.Addr().String()
		fmt.Printf("loadgen: smoke server on %s (cache capacity %d)\n", base, smokeCacheCapacity)
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

	stream := &mixStream{client: client, spread: *spread}
	for _, t := range requestMix() {
		if t.autotune {
			stream.autotunes = append(stream.autotunes, t)
		} else {
			stream.plans = append(stream.plans, t)
		}
	}
	if *batch {
		stream.batches = batchMix()
	}
	if *faults {
		stream.overlays = faultMix()
	}

	if *wire == "binary" {
		// One cross-format sanity check before the load: the same request
		// served over JSON and binary must decode identically.
		verifyWireParity(ctx, base, client, stream.plans[0])
	}

	before, err := client.Stats(ctx)
	if err != nil {
		fail("stats: %v", err)
	}
	load := drive{
		agents: *clients,
		seed:   uint64(*seed),
		arrivals: func(s uint64) loadmodel.Process {
			return buildProcess(*arrivals, *rate/float64(*clients), s)
		},
		next:     stream.next,
		requests: *requests,
		horizon:  *duration,
	}
	if *duration > 0 {
		load.requests = 0
	}
	schedule := "closed arrivals"
	if open {
		schedule = fmt.Sprintf("%s arrivals at %.0f rps", *arrivals, *rate)
	}
	fmt.Printf("loadgen: %d agents, %s, mix of %d templates (spread %d), target %s\n",
		*clients, schedule, len(requestMix()), *spread, base)
	all, elapsed := load.run(ctx)

	var churn *churnResult
	if *churnMode {
		if churn, err = runChurnPhase(ctx, client, *churnScenario, uint64(*seed)); err != nil {
			fail("churn phase: %v", err)
		}
	}

	sstats, err := client.Stats(ctx)
	if err != nil {
		fail("stats: %v", err)
	}

	every, single, batches := all.sum(), all.sum(classPlan, classFault), all.sum(classBatch)
	rep := report{
		Clients:             *clients,
		Requests:            every.attempts,
		OK:                  single.ok,
		Rejected:            every.rejected,
		Errors:              every.errs,
		Coalesced:           single.coalesced,
		DurationSeconds:     elapsed.Seconds(),
		ThroughputRPS:       float64(single.ok) / elapsed.Seconds(),
		OfferedRPS:          float64(every.attempts) / elapsed.Seconds(),
		Arrivals:            *arrivals,
		LatencyP50Millis:    percentileMillis(single.dispatch, 50),
		LatencyP95Millis:    percentileMillis(single.dispatch, 95),
		LatencyP99Millis:    percentileMillis(single.dispatch, 99),
		LatencyMaxMillis:    percentileMillis(single.dispatch, 100),
		DueLatencyP50Millis: percentileMillis(single.due, 50),
		DueLatencyP99Millis: percentileMillis(single.due, 99),

		BatchRequests:         batches.attempts,
		BatchOK:               batches.ok,
		BatchItems:            batches.items,
		BatchLatencyP50Millis: percentileMillis(batches.dispatch, 50),
		BatchLatencyP95Millis: percentileMillis(batches.dispatch, 95),
		BatchLatencyP99Millis: percentileMillis(batches.dispatch, 99),
		BatchLatencyMaxMillis: percentileMillis(batches.dispatch, 100),
		FaultRequests:         all.by[classFault].attempts,
		FaultOK:               all.by[classFault].ok,
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
		rep.ChurnPasses = churnPasses
		rep.ChurnRequests = churn.attempts
		rep.ChurnOK = churn.ok
		rep.ChurnMismatches = churn.mismatches
	}
	printReport(rep)
	if open {
		window := *duration
		if window == 0 {
			window = elapsed
		}
		row := liveOpenRow(*arrivals, *clients, uint64(*seed), every, window, elapsed, before.Admission, sstats.Admission)
		printOpenRow(row)
		rep.OpenLoop = []openLoopRow{row}
	}
	if all.firstErr != "" {
		fmt.Printf("first error: %s\n", all.firstErr)
	}

	if *jsonPath != "" {
		writeReport(*jsonPath, rep)
		fmt.Printf("report written to %s\n", *jsonPath)
	}

	failed := false
	if *verify {
		if n := verifyPlans(ctx, client, stream.plans); n > 0 {
			fmt.Printf("VERIFY FAILED: %d template(s) diverged from the direct resharding path\n", n)
			failed = true
		} else {
			fmt.Println("verify: served plans byte-identical to the direct resharding path")
		}
		if *batch {
			if n := verifyBatches(ctx, client, stream.batches); n > 0 {
				fmt.Printf("VERIFY FAILED: %d batch item(s) diverged from /v2/plan\n", n)
				failed = true
			} else {
				fmt.Println("verify: /v2/plan:batch items byte-identical to per-boundary /v2/plan")
			}
		}
		if *faults {
			if n := verifyFaults(ctx, client, stream.plans, stream.overlays); n > 0 {
				fmt.Printf("VERIFY FAILED: %d degraded request(s) violated the fault-overlay contract\n", n)
				failed = true
			} else {
				fmt.Println("verify: degraded plans re-keyed, deterministic, and never faster than healthy")
			}
		}
	}
	if *smoke && *batch && batches.ok == 0 {
		fmt.Println("SMOKE FAILED: no /v2/plan:batch request succeeded")
		failed = true
	}
	if *smoke && *faults && rep.FaultOK == 0 {
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
		if churn.mismatches > 0 {
			fmt.Printf("CHURN FAILED: %d churn reply(ies) differ from a fresh server's (first: %s)\n", churn.mismatches, churn.firstMismatch)
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
		if every.errs > 0 || every.ok == 0 {
			fmt.Printf("SMOKE FAILED: %d request errors, %d served\n", every.errs, every.ok)
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

// mixStream is the request stream of a load run: what an agent asks next,
// drawn from the agent's own RNG.
type mixStream struct {
	client           *alpacomm.PlanClient
	plans, autotunes []template
	batches          []batchTemplate      // empty without -batch
	overlays         []*service.FaultsRef // empty without -faults
	spread           int
}

func (m *mixStream) next(_ int, rng *rand.Rand) op {
	if len(m.batches) > 0 && rng.Float64() < batchFraction {
		bt := m.batches[rng.Intn(len(m.batches))]
		return op{class: classBatch, do: func(ctx context.Context) (reply, error) {
			resp, err := m.client.PlanBatch(ctx, &bt.req)
			if err != nil {
				return reply{}, err
			}
			return reply{items: len(resp.Items)}, nil
		}}
	}
	if len(m.overlays) > 0 && rng.Float64() < faultsFraction {
		// Degraded-topology churn: the same template the healthy mix
		// plans, with a fault overlay — exercising replan-on-degrade
		// and the healthy/degraded cache partition under load.
		t := m.plans[rng.Intn(len(m.plans))]
		overlay := m.overlays[rng.Intn(len(m.overlays))]
		return planOp(classFault, m.client, t.planRequest(m.optionSeed(rng), overlay))
	}
	if len(m.autotunes) > 0 && rng.Float64() < autotuneFraction {
		t := m.autotunes[rng.Intn(len(m.autotunes))]
		req := &alpacomm.AutotuneServiceRequest{
			Topology: t.topology, Shape: t.shape, DType: t.dtype,
			Src: t.src, Dst: t.dst, Options: service.PlanOptions{Seed: m.optionSeed(rng)},
		}
		return op{class: classPlan, do: func(ctx context.Context) (reply, error) {
			resp, err := m.client.AutotuneV2(ctx, req)
			if err != nil {
				return reply{}, err
			}
			return reply{coalesced: resp.Coalesced}, nil
		}}
	}
	t := m.plans[rng.Intn(len(m.plans))]
	return planOp(classPlan, m.client, t.planRequest(m.optionSeed(rng), nil))
}

func (m *mixStream) optionSeed(rng *rand.Rand) int64 { return 1 + int64(rng.Intn(m.spread)) }

// verifyWireParity serves one template over both wire formats and fails
// the run unless the decoded responses are identical — the quick parity
// proof -wire=binary runs before trusting the binary path under load.
func verifyWireParity(ctx context.Context, base string, binClient *alpacomm.PlanClient, t template) {
	req := t.planRequest(1, nil)
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
func verifyPlans(ctx context.Context, client *alpacomm.PlanClient, plans []template) int {
	reg := alpacomm.DefaultTopologyRegistry()
	bad := 0
	for _, t := range plans {
		resp, err := client.PlanV2(ctx, t.planRequest(1, nil))
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
func verifyFaults(ctx context.Context, client *alpacomm.PlanClient, plans []template, overlays []*service.FaultsRef) int {
	bad := 0
	for _, t := range plans {
		healthy, err := client.PlanV2(ctx, t.planRequest(1, nil))
		if err != nil {
			fmt.Printf("verify %s: healthy request: %v\n", t.name, err)
			bad++
			continue
		}
		for oi, ov := range overlays {
			req := t.planRequest(1, ov)
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

// writeReport writes rep (a report or a clusterReport) as indented JSON.
func writeReport(path string, rep any) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("marshal report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail("write report: %v", err)
	}
}

func printReport(r report) {
	fmt.Printf("\n%d requests in %.2fs — %.0f served req/s, %.0f offered (%d agents, %s arrivals)\n",
		r.Requests, r.DurationSeconds, r.ThroughputRPS, r.OfferedRPS, r.Clients, r.Arrivals)
	fmt.Printf("  ok %d, rejected(429) %d, errors %d, coalesced %d\n",
		r.OK, r.Rejected, r.Errors, r.Coalesced)
	fmt.Printf("  latency from dispatch p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		r.LatencyP50Millis, r.LatencyP95Millis, r.LatencyP99Millis, r.LatencyMaxMillis)
	fmt.Printf("  latency from due time p50 %.3fms  p99 %.3fms\n", r.DueLatencyP50Millis, r.DueLatencyP99Millis)
	if r.BatchRequests > 0 {
		fmt.Printf("  batch: %d requests (%d ok, %d items planned)\n", r.BatchRequests, r.BatchOK, r.BatchItems)
		fmt.Printf("  batch latency p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
			r.BatchLatencyP50Millis, r.BatchLatencyP95Millis, r.BatchLatencyP99Millis, r.BatchLatencyMaxMillis)
	}
	if r.FaultRequests > 0 {
		fmt.Printf("  degraded churn: %d requests (%d ok)\n", r.FaultRequests, r.FaultOK)
	}
	if r.ChurnScenario != "" {
		fmt.Printf("  churn timeline %q: %d steps x %d passes, %d requests (%d ok, %d differ from a fresh server)\n",
			r.ChurnScenario, r.ChurnSteps, r.ChurnPasses, r.ChurnRequests, r.ChurnOK, r.ChurnMismatches)
	}
	fmt.Printf("  server cache: %d hits, %d misses, %d entries (capacity %d), %d evictions\n",
		r.CacheHits, r.CacheMisses, r.CacheEntries, r.CacheCapacity, r.CacheEvictions)
}
