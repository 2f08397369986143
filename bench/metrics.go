package main

import "encoding/json"

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// end-to-end metric each is expected to move. BENCHMARK.json at the
// repository root is generated from it (go run . -spec) and a test holds
// the two equal.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound *float64 `json:"bound,omitempty"`
	// Moves documents a per-layer metric, whose layer is its name's prefix:
	// the metric and workload it should move. The runner prints it beside
	// the values; BENCHMARK.json, whose keys are fixed, omits it.
	Moves string `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

const (
	planCold = "plan_cold"
	serveHit = "serve_hit"
	tierZipf = "tier_zipf"
	openMiss = "open_miss"
)

var workloadSpecs = []workloadSpec{
	{planCold, "Library path, no cache or HTTP: parse, plan, simulate 702 distinct problems (Table 2/3 plus seeded draws); sharding, schedule, resharding and netsim do all the work, service and cluster none."},
	{serveHit, "Server.ServeHTTP in process on 64 warmed keys, JSON and binary alternating: the service hit path (decode, parse memo, lookup, pre-encoded copy) does all the work and the planner none."},
	{tierZipf, "Loopback TCP to a 2-node tier, 384 cache entries in total, Zipf(1.1) over 1998 keys, 10% faulted: fills, evictions, warm replans and the proxy hop beside hits; only here does cluster carry weight."},
	{openMiss, "Open loop: Poisson arrivals at a fixed 400 req/s over loopback TCP to one server, every request a distinct problem, latency from the due time: arrivals do not wait, so a slower miss shows as queueing."},
}

func bound(b float64) *float64 { return &b }

// endToEndSpecs are measured with tracing off, on every workload. Bounds
// come from the spread of ten differently-seeded runs on the reference box,
// taken twice (see README.md): each is above every spread seen and, but for
// a few wall-clock cells on that shared box, at least three times it.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: bound(0.25)},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: higher, Bound: bound(0.25)},
	{Name: "goodput_ops_s", Unit: "ops/s", Better: higher, Bound: bound(0.25)},
	{Name: "latency_p50_us", Unit: "us", Better: lower, Bound: bound(0.25)},
	{Name: "slo_met_fraction", Unit: "fraction", Better: higher, Bound: bound(0.10)},
	{Name: "makespan_geomean_us", Unit: "sim_us", Better: lower, Bound: bound(0.001)},
	{Name: "cpu_us_per_op", Unit: "us", Better: lower, Bound: bound(0.25)},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: lower, Bound: bound(0.15)},
	{Name: "heap_retained_mb", Unit: "MB", Better: lower, Bound: bound(0.10)},
}

// perLayerSpecs are measured by the traced pass. Timings are medians of
// spans recorded around public calls; a _self_ metric is a span minus the
// spans of the calls it is known to make.
var perLayerSpecs = []metricSpec{
	{Name: "sharding.decompose_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, latency_p50_us @ plan_cold; latency_p50_us @ open_miss"},
	{Name: "sharding.units_per_task", Unit: "count", Better: lower, Moves: "exact; sizes every planner stage"},

	{Name: "mesh.topology_build_us", Unit: "us", Better: lower, Moves: "small @ plan_cold (memoized per server)"},
	{Name: "mesh.fault_overlay_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf (faulted requests)"},
	{Name: "mesh.fingerprint_us", Unit: "us", Better: lower, Moves: "small @ plan_cold"},

	{Name: "schedule.ensemble_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ plan_cold; latency_p50_us @ open_miss"},
	{Name: "schedule.dfs_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ plan_cold"},
	{Name: "schedule.greedy_ensemble_us", Unit: "us", Better: lower, Moves: "none gated (the degraded scheduler)"},
	{Name: "schedule.lower_bound_gap", Unit: "ratio", Better: lower, Moves: "makespan_geomean_us everywhere"},

	{Name: "resharding.plan_build_us", Unit: "us", Better: lower, Moves: "throughput_ops_s @ plan_cold; latency_p50_us @ open_miss"},
	{Name: "resharding.plan_build_self_us", Unit: "us", Better: lower, Moves: "throughput_ops_s @ plan_cold"},
	{Name: "resharding.cache_key_us", Unit: "us", Better: lower, Moves: "latency_p50_us @ plan_cold, open_miss"},
	{Name: "resharding.cache_lookup_ns", Unit: "ns", Better: lower, Moves: "throughput_ops_s @ serve_hit"},
	{Name: "resharding.cache_fill_self_us", Unit: "us", Better: lower, Moves: "latency_p50_us @ open_miss"},
	{Name: "resharding.cache_hit_fraction", Unit: "fraction", Better: higher, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf"},
	{Name: "resharding.cache_evictions", Unit: "count", Better: lower, Moves: "throughput_ops_s @ tier_zipf"},
	{Name: "resharding.warm_identity_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf"},
	{Name: "resharding.warm_search_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf"},
	{Name: "resharding.cold_replan_us", Unit: "us", Better: lower, Moves: "the cost warm replans avoid @ tier_zipf"},
	{Name: "resharding.warm_accept_fraction", Unit: "fraction", Better: higher, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf"},
	{Name: "resharding.plan_allocs_per_op", Unit: "count", Better: lower, Moves: "alloc_bytes_per_op @ plan_cold, open_miss"},
	{Name: "resharding.autotune_grid_ms", Unit: "ms", Better: lower, Moves: "no workload"},

	{Name: "netsim.simulate_us", Unit: "us", Better: lower, Moves: "throughput_ops_s @ plan_cold; latency_p50_us @ open_miss; cluster.verify_fill_us @ tier_zipf"},
	{Name: "netsim.simulate_traced_us", Unit: "us", Better: lower, Moves: "none gated (serving simulates trace-free)"},
	{Name: "netsim.ops_per_sim", Unit: "count", Better: lower, Moves: "exact; sizes netsim.simulate_us"},
	{Name: "netsim.sim_allocs_per_op", Unit: "count", Better: lower, Moves: "alloc_bytes_per_op @ plan_cold"},
	{Name: "netsim.replay_us", Unit: "us", Better: lower, Moves: "netsim.simulate_us"},

	{Name: "pipeline.simulate_us", Unit: "us", Better: lower, Moves: "none gated"},
	{Name: "alpacomm.trainjob_run_ms", Unit: "ms", Better: lower, Moves: "none gated"},
	{Name: "pipeline.fig7_tflops_geomean", Unit: "TFLOPS", Better: higher, Moves: "exact; guards the paper's end-to-end result"},

	{Name: "service.parse_key_us", Unit: "us", Better: lower, Moves: "latency_p50_us @ plan_cold, open_miss"},
	{Name: "service.parse_key_memo_ns", Unit: "ns", Better: lower, Moves: "throughput_ops_s, latency_p50_us @ serve_hit"},
	{Name: "service.handler_hit_json_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, latency_p50_us @ serve_hit"},
	{Name: "service.handler_hit_binary_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, latency_p50_us @ serve_hit"},
	{Name: "service.hit_p99_us", Unit: "us", Better: lower, Moves: "bench.latency_p99_us @ serve_hit"},
	{Name: "service.handler_miss_us", Unit: "us", Better: lower, Moves: "latency_p50_us @ open_miss; bench.latency_p99_us @ tier_zipf"},
	{Name: "service.handler_miss_self_us", Unit: "us", Better: lower, Moves: "latency_p50_us @ open_miss (the miss cost the planner does not explain)"},
	{Name: "service.install_encode_us", Unit: "us", Better: lower, Moves: "latency_p50_us @ open_miss; bench.latency_p99_us @ tier_zipf"},
	{Name: "service.frame_decode_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf (proxied fills)"},
	{Name: "service.client_roundtrip_hit_us", Unit: "us", Better: lower, Moves: "latency_p50_us @ tier_zipf"},
	{Name: "service.transport_overhead_us", Unit: "us", Better: lower, Moves: "latency_p50_us @ tier_zipf"},
	{Name: "service.batch_item_us", Unit: "us", Better: lower, Moves: "no workload"},
	{Name: "service.slo_admit_ns", Unit: "ns", Better: lower, Moves: "no workload (the controller is off in all four)"},
	{Name: "service.hit_allocs_per_op", Unit: "count", Better: lower, Moves: "alloc_bytes_per_op @ serve_hit"},
	{Name: "service.miss_allocs_per_op", Unit: "count", Better: lower, Moves: "alloc_bytes_per_op @ open_miss"},
	{Name: "service.response_bytes_json", Unit: "B", Better: lower, Moves: "exact; latency_p50_us @ tier_zipf"},
	{Name: "service.response_bytes_binary", Unit: "B", Better: lower, Moves: "exact; cluster.fetch_us"},
	{Name: "service.coalesced_fraction", Unit: "fraction", Better: higher, Moves: "throughput_ops_s @ tier_zipf"},

	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: lower, Moves: "latency_p50_us @ tier_zipf"},
	{Name: "cluster.fetch_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf"},
	{Name: "cluster.verify_fill_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf"},
	{Name: "cluster.proxy_overhead_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, bench.latency_p99_us @ tier_zipf"},
	{Name: "cluster.proxied_fraction", Unit: "fraction", Better: lower, Moves: "throughput_ops_s @ tier_zipf; trades against resharding.cache_hit_fraction"},
	{Name: "cluster.proxy_fallbacks", Unit: "count", Better: lower, Moves: "throughput_ops_s @ tier_zipf"},
	{Name: "cluster.verified_rejects", Unit: "count", Better: lower, Moves: "throughput_ops_s @ tier_zipf"},
	{Name: "cluster.duplicate_entry_fraction", Unit: "fraction", Better: lower, Moves: "resharding.cache_hit_fraction @ tier_zipf"},
	{Name: "cluster.snapshot_ms", Unit: "ms", Better: lower, Moves: "none gated"},
	{Name: "cluster.restore_ms", Unit: "ms", Better: lower, Moves: "none gated"},

	{Name: "bench.latency_p99_us", Unit: "us", Better: lower, Moves: "the workload's own p99 over the traced pass's untraced rounds; ungated because it does not repeat within any bound at microsecond scale or from the due time"},
	{Name: "bench.generator_late_p99_us", Unit: "us", Better: lower, Moves: "instrument health @ open_miss"},
	{Name: "bench.tracing_overhead_fraction", Unit: "fraction", Better: lower, Moves: "instrument health"},
	{Name: "bench.unexplained_fraction", Unit: "fraction", Better: lower, Moves: "instrument health; share of request time no staged call accounts for"},
}

// runSeconds is how long one run measures; the runner's -seconds default
// and BENCHMARK.json's run_seconds.
const runSeconds = 30

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func benchmarkJSON() ([]byte, error) {
	data, err := json.MarshalIndent(benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}, "", "  ")
	return append(data, '\n'), err
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet builds the reported map for a list of specs from measured
// values, so a metric missing from either side is caught in one place.
func metricSet(specs []metricSpec, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, missing
}
