// Distributed-tier benchmark (-cluster): spins in-process plan-serving
// tiers of 1/2/4/8 nodes over loopback HTTP, drives a working set that
// overflows any single node's plan cache, and measures how aggregate
// throughput scales as the tier absorbs the cache-miss load — one node
// thrashes its LRU and pays a full search per miss; eight nodes keep each
// owner's share of the working set resident, and the sprayed traffic that
// lands on a non-owner is planned there. The run fails itself when the
// 8-node tier does not plan at least minClusterScaling times fewer
// computations per request than one node, and when any plan the tier
// computed ended proven (checkSearched): the scaling figure means something
// only while every miss pays a full search. The gate counts computations
// rather than timing requests: the count depends on the caches, the ring
// and the traffic, while the throughput of two windows run one after the
// other also follows whatever else the machine is running. Throughput is
// reported beside it.
//
// The tier's correctness contracts are go tests, not part of this run:
// byte-identical plans from every node (TestTierByteIdenticalAcrossNodes,
// TestGoldenClusterByteIdentity), one computation per node for a cold herd
// and no peer traffic from a miss (TestTierCrossNodeSingleflight), and a
// warm restart that recomputes nothing (TestSnapshotRoundTrip,
// TestGoldenClusterSnapshotRoundTrip).
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	alpacomm "alpacomm"
	"alpacomm/internal/service"
)

// clusterRunReport is one node-count scaling run.
type clusterRunReport struct {
	Nodes            int     `json:"nodes"`
	OK               int     `json:"ok"`
	DurationSeconds  float64 `json:"duration_seconds"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	LatencyP50Millis float64 `json:"latency_p50_ms"`
	LatencyP99Millis float64 `json:"latency_p99_ms"`
	// TierComputations is the number of actual planner computations the
	// tier ran during the measured window (Σ cache misses across nodes):
	// the figure the tier exists to shrink.
	TierComputations int `json:"tier_computations"`
	// ComputationsPerRequest is TierComputations / OK.
	ComputationsPerRequest float64 `json:"computations_per_request"`
}

// clusterReport is the -cluster run's -json report.
type clusterReport struct {
	NodeCounts           []int              `json:"node_counts"`
	PerNodeCacheCapacity int                `json:"per_node_cache_capacity"`
	WorkingSetKeys       int                `json:"working_set_keys"`
	Clients              int                `json:"clients"`
	Runs                 []clusterRunReport `json:"runs"`
	// Computations1Vs8x is the gated scaling figure: the single node's
	// computations per request over the 8-node tier's on the identical
	// workload.
	Computations1Vs8x float64 `json:"computations_per_request_1_vs_8x"`
	// Speedup8xVs1 is measured throughput of the 8-node tier over the
	// single node, reported but not gated.
	Speedup8xVs1 float64 `json:"speedup_8x_vs_1"`
}

// benchTier is an in-process tier over real loopback TCP: every node is a
// full plan server made a tier member by a cluster node with static peers.
type benchTier struct {
	clients []*alpacomm.PlanClient
	urls    []string
	closers []func()
}

func (bt *benchTier) close() {
	for _, c := range bt.closers {
		c()
	}
}

// stats fetches every node's service stats.
func (bt *benchTier) stats(ctx context.Context) []*service.StatsResponse {
	out := make([]*service.StatsResponse, len(bt.clients))
	for i, cl := range bt.clients {
		st, err := cl.Stats(ctx)
		if err != nil {
			fail("cluster: stats from node %d: %v", i, err)
		}
		out[i] = st
	}
	return out
}

// tierComputations sums actual planner computations (cache misses) across
// the tier.
func tierComputations(stats []*service.StatsResponse) int {
	total := 0
	for _, st := range stats {
		total += st.Cache.Misses
	}
	return total
}

// startBenchTier builds an n-node tier with the given per-node cache
// capacity. Listeners come up first so every node knows every peer's
// address at construction.
func startBenchTier(n, capacity int) *benchTier {
	bt := &benchTier{}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("cluster: listen: %v", err)
		}
		lns[i] = ln
		bt.urls = append(bt.urls, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		peers := map[string]string{}
		for j := 0; j < n; j++ {
			if j != i {
				peers[fmt.Sprintf("node%d", j)] = bt.urls[j]
			}
		}
		srv := alpacomm.NewPlanServer(alpacomm.PlanServerConfig{
			Cache:     alpacomm.NewLRUReshardCache(capacity),
			PlanQueue: 256,
		})
		if _, err := alpacomm.NewClusterNode(alpacomm.ClusterNodeConfig{NodeID: fmt.Sprintf("node%d", i), Peers: peers}, srv); err != nil {
			fail("cluster: node: %v", err)
		}
		hs := &http.Server{Handler: srv}
		go func(ln net.Listener) { _ = hs.Serve(ln) }(lns[i])
		bt.clients = append(bt.clients, alpacomm.NewPlanClient(bt.urls[i], nil))
		bt.closers = append(bt.closers, func() { _ = hs.Close() })
	}
	return bt
}

// clusterKeyReq is the scaling workload's request shape: a 62x96 fp32
// 2x4 -> 2x4 boundary over 4 p3 hosts whose 16 units can each be sent from
// either source host. No search proves it: the target search spends its
// 8 192 nodes, the DFS its 20 000 and greedy its 256 trials (~3.5 ms), so
// a cache-resident tier is decisively cheaper than recomputation; a miss
// runs that search on whichever node it lands on. Distinct seeds give
// distinct canonical cache keys.
func clusterKeyReq(seed int64) *service.PlanRequest {
	return &service.PlanRequest{
		Topology: service.TopologyRef{Name: "p3", Hosts: 4},
		Shape:    []int{62, 96},
		Src:      service.Endpoint{Mesh: "2x4@0", Spec: "RS1"},
		Dst:      service.Endpoint{Mesh: "2x4@8", Spec: "S1S0"},
		Options: service.PlanOptions{
			Seed: seed, Strategy: "broadcast", Scheduler: "ensemble",
			DFSNodes: 20000, Chunks: 8,
		},
	}
}

// keyOwners precomputes, for each working-set key, which tier node owns
// it: the canonical cache key from a scratch parse, routed on a ring
// built exactly like the tier's. This is what a smart client does in a
// consistent-hash serving tier — route to the owner, whose cache holds the
// key — and the bench sends most traffic that way, keeping a random slice
// that lands on non-owners, which plan what they do not hold.
func keyOwners(n, workingSet int) []int {
	scratch := service.New(service.Config{})
	ring := alpacomm.NewClusterRing()
	idx := map[string]int{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node%d", i)
		ring.Add(id)
		idx[id] = i
	}
	owners := make([]int, workingSet)
	for k := 0; k < workingSet; k++ {
		_, _, key, err := scratch.ParsePlanRequest(context.Background(), clusterKeyReq(int64(k)))
		if err != nil {
			fail("cluster: parse key %d: %v", k, err)
		}
		owner, ok := ring.Owner(key)
		if !ok {
			fail("cluster: empty ring")
		}
		owners[k] = idx[owner]
	}
	return owners
}

// affinityFraction is the share of measured traffic a smart client routes
// straight to the key's owner; the rest lands on a random node, which
// serves it from its own cache or plans it there.
const affinityFraction = 0.9

// The scaling run's shape. Constants, not flags: each had one value in use.
const (
	clusterCapacity   = 32 // per-node plan cache entries
	clusterWorkingSet = 160
	clusterClients    = 8
	clusterWindow     = 3 * time.Second // measured window per node count
	// minClusterScaling is the floor on the 1-node tier's computations per
	// request over the 8-node tier's: the 8-node tier must absorb the
	// cache-miss load a single node thrashes on.
	minClusterScaling = 6.0
)

// runScaling measures one node count: warm every key once (one agent,
// round-robin over the nodes, off the clock), then closed-loop agents
// hitting uniformly random keys — mostly owner-routed, partly on random
// nodes — for the measured window.
func runScaling(n int, seed uint64) clusterRunReport {
	bt := startBenchTier(n, clusterCapacity)
	defer bt.close()
	ctx := context.Background()
	owners := keyOwners(n, clusterWorkingSet)
	run := func(d drive) (classTally, float64) {
		all, elapsed := d.run(ctx)
		row := all.sum()
		if row.errs+row.rejected > 0 {
			fail("cluster: %d request errors, %d rejected on the %d-node tier (first: %s)", row.errs, row.rejected, n, all.firstErr)
		}
		return row, elapsed.Seconds()
	}

	k := -1
	run(drive{agents: 1, seed: seed, arrivals: closedArrivals, requests: clusterWorkingSet,
		next: func(int, *rand.Rand) op {
			k++
			return planOp(classPlan, bt.clients[k%n], clusterKeyReq(int64(k)))
		}})
	warmComputations := tierComputations(bt.stats(ctx))

	row, elapsed := run(drive{agents: clusterClients, seed: seed, arrivals: closedArrivals, horizon: clusterWindow,
		next: func(_ int, rng *rand.Rand) op {
			k := rng.Intn(clusterWorkingSet)
			node := owners[k]
			if rng.Float64() >= affinityFraction {
				node = rng.Intn(n)
			}
			return planOp(classPlan, bt.clients[node], clusterKeyReq(int64(k)))
		}})

	stats := bt.stats(ctx)
	checkSearched(n, stats)
	computations := tierComputations(stats) - warmComputations
	// Closed arrivals: latency from the due time and from dispatch are the
	// same series.
	return clusterRunReport{
		Nodes:                  n,
		OK:                     row.ok,
		DurationSeconds:        elapsed,
		ThroughputRPS:          float64(row.ok) / elapsed,
		LatencyP50Millis:       percentileMillis(row.due, 50),
		LatencyP99Millis:       percentileMillis(row.due, 99),
		TierComputations:       computations,
		ComputationsPerRequest: float64(computations) / float64(row.ok),
	}
}

// checkSearched fails the run unless every plan the tier computed ended
// unproven (/v2/stats exits). A proven miss costs a fraction of a
// millisecond, so a working set that ends proven measures HTTP serving,
// not the tier absorbing searches. clusterKeyReq searches only because the
// target search's dominance table misses states that differ by swapping
// interchangeable sender hosts; mending that would prove it.
func checkSearched(n int, stats []*service.StatsResponse) {
	var computed, unproven int64
	for _, st := range stats {
		e := st.Exits
		computed += e.Naive + e.LPT + e.Witness + e.Target + e.Greedy + e.DFS
		unproven += e.Unproven
	}
	if computed == 0 || unproven != computed {
		fail("cluster: the %d-node tier computed %d plans, %d of them unproven; every working-set plan (clusterKeyReq) must search",
			n, computed, unproven)
	}
}

// runClusterBench is the -cluster mode entry point.
func runClusterBench(jsonPath string, seed uint64) {
	rep := clusterReport{
		NodeCounts:           []int{1, 2, 4, 8},
		PerNodeCacheCapacity: clusterCapacity,
		WorkingSetKeys:       clusterWorkingSet,
		Clients:              clusterClients,
	}
	for _, n := range rep.NodeCounts {
		fmt.Printf("cluster: measuring %d-node tier (capacity %d, working set %d keys, %s window)\n",
			n, clusterCapacity, clusterWorkingSet, clusterWindow)
		run := runScaling(n, seed)
		fmt.Printf("cluster: %d node(s): %.0f rps, p50 %.2fms p99 %.2fms, %d computations (%.3f per request)\n",
			n, run.ThroughputRPS, run.LatencyP50Millis, run.LatencyP99Millis, run.TierComputations, run.ComputationsPerRequest)
		rep.Runs = append(rep.Runs, run)
	}
	one, eight := rep.Runs[0], rep.Runs[len(rep.Runs)-1]
	rep.Computations1Vs8x = one.ComputationsPerRequest / eight.ComputationsPerRequest
	rep.Speedup8xVs1 = eight.ThroughputRPS / one.ThroughputRPS
	fmt.Printf("cluster: computations per request, 1-node over 8-node: %.2fx (floor %.1fx)\n", rep.Computations1Vs8x, minClusterScaling)
	fmt.Printf("cluster: 8-node vs 1-node throughput speedup: %.1fx (not gated)\n", rep.Speedup8xVs1)

	if jsonPath != "" {
		writeReport(jsonPath, rep)
		fmt.Printf("report written to %s\n", jsonPath)
	}
	if rep.Computations1Vs8x < minClusterScaling {
		fail("cluster: computations per request, 1-node over 8-node, is %.2fx, below the %.1fx floor",
			rep.Computations1Vs8x, minClusterScaling)
	}
}
