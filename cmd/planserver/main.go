// Command planserver runs the plan-serving daemon: an HTTP+JSON API that
// plans, simulates and autotunes cross-mesh reshardings against named
// hardware topologies, with request coalescing, a bounded LRU plan cache
// and per-endpoint admission control (see internal/service). With
// -slo-p99 /v2/plan additionally runs SLO-aware admission: when
// the sliding-window p99 approaches the budget the server degrades
// planning to a greedy single-pass schedule (flagged in the response),
// and past the budget it sheds with a structured overloaded error and
// Retry-After.
//
// Example:
//
//	planserver -addr :8100 -cache-capacity 4096 &
//	curl -s localhost:8100/v2/plan -d '{
//	  "topology": {"name": "p3", "hosts": 2},
//	  "shape": [1024, 1024],
//	  "src": {"mesh": "2x2@0", "spec": "S01R"},
//	  "dst": {"mesh": "2x2@4", "spec": "S0R"},
//	  "options": {"seed": 1}
//	}'
//	curl -s localhost:8100/v2/stats
//
// The API is /v2/plan, /v2/autotune, /v2/plan:batch — which plans every
// stage boundary of a pipeline job in one request — and /v2/stats. Errors
// are a structured envelope, the X-Timeout-Ms header propagates a
// deadline, and every plan, autotune, batch and error response is also
// available as a compact binary frame: send
// "Accept: application/x-alpacomm-plan".
//
// Cluster mode (-node-id + -peers) makes N planservers one tier: a
// consistent-hash ring over the configured members gives each canonical
// cache key an owner node, which clients use to send a key where it is
// cached (see internal/cluster). Membership is fixed by -node-id and
// -peers. A plan is a pure function of its request, so every node plans the
// misses that land on it and serves the bytes any other node would; no node
// asks a peer for a plan. With -snapshot the requests that filled the cache
// are periodically persisted and replayed on start (each planned again on
// this node, so a snapshot can never install a wrong plan), so a bounced
// node restarts warm:
//
//	planserver -addr :8101 -node-id a -peers 'b=http://127.0.0.1:8102' \
//	    -snapshot /var/tmp/plans-a.snap
//
// Shutdown is graceful on SIGINT/SIGTERM: the server drains in-flight
// requests under -drain-timeout, then writes a final snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	alpacomm "alpacomm"
)

// parsePeers parses "id=url,id=url" into the peer map.
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		peers[id] = url
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", ":8100", "listen address")
	capacity := flag.Int("cache-capacity", alpacomm.DefaultPlanCacheCapacity,
		"plan cache LRU capacity (0 = unbounded)")
	planWorkers := flag.Int("plan-workers", 0, "search pool size: concurrent /v2/plan and /v2/plan:batch misses whose draft must search (0 = GOMAXPROCS)")
	planQueue := flag.Int("plan-queue", 0, "search pool wait-queue depth (0 = 4x workers)")
	autotuneWorkers := flag.Int("autotune-workers", 0, "/v2/autotune worker pool size (0 = GOMAXPROCS/2)")
	autotuneQueue := flag.Int("autotune-queue", 0, "/v2/autotune wait-queue depth (0 = 2x workers)")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff hint on 429 responses")
	sloP99 := flag.Duration("slo-p99", 0,
		"corrected p99 latency budget for SLO-aware /v2/plan admission (0 = fixed worker-pool gate only)")
	nodeID := flag.String("node-id", "", "cluster node identity (empty = standalone)")
	peersFlag := flag.String("peers", "", "cluster peers as id=url,id=url")
	snapshotPath := flag.String("snapshot", "", "plan-cache snapshot file (cluster mode; empty = no persistence)")
	snapshotEvery := flag.Duration("snapshot-interval", time.Minute, "periodic snapshot interval")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	flag.Parse()

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("planserver: %v", err)
	}
	if *nodeID == "" && len(peers) > 0 {
		log.Fatal("planserver: -peers requires -node-id")
	}

	reg := alpacomm.DefaultTopologyRegistry()
	cfg := alpacomm.PlanServerConfig{
		Registry:        reg,
		Cache:           alpacomm.NewLRUReshardCache(*capacity),
		PlanWorkers:     *planWorkers,
		PlanQueue:       *planQueue,
		AutotuneWorkers: *autotuneWorkers,
		AutotuneQueue:   *autotuneQueue,
		RetryAfter:      *retryAfter,
	}
	if *sloP99 > 0 {
		cfg.SLO = &alpacomm.ServiceSLOConfig{P99Budget: *sloP99}
	}
	srv := alpacomm.NewPlanServer(cfg)

	var node *alpacomm.ClusterNode
	if *nodeID != "" {
		node, err = alpacomm.NewClusterNode(alpacomm.ClusterNodeConfig{NodeID: *nodeID, Peers: peers}, srv)
		if err != nil {
			log.Fatalf("planserver: %v", err)
		}
	}

	fmt.Printf("planserver: listening on %s (API: /v2/plan, /v2/autotune, /v2/plan:batch, /v2/stats)\n", *addr)
	fmt.Printf("planserver: topologies: %s\n", strings.Join(reg.Names(), ", "))
	fmt.Printf("planserver: cache capacity %d, retry-after %v\n", *capacity, *retryAfter)
	if *sloP99 > 0 {
		fmt.Printf("planserver: SLO admission on /v2/plan: p99 budget %v (degrade, then shed)\n", *sloP99)
	}

	// ctx ends on the first SIGINT/SIGTERM and starts the graceful path;
	// a second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if node != nil {
		fmt.Printf("planserver: cluster node %q, peers: %v\n", *nodeID, peers)
		if *snapshotPath != "" {
			if st, err := node.Restore(ctx, *snapshotPath); err != nil {
				log.Printf("planserver: warm restart failed: %v", err)
			} else if st.Entries > 0 {
				fmt.Printf("planserver: warm restart: %d/%d snapshot entries replayed\n",
					st.Restored, st.Entries)
			}
			// The loop's final snapshot runs on ctx end — before Shutdown
			// completes the drain — so the post-drain snapshot below is the
			// authoritative last write.
			go node.SnapshotLoop(ctx, *snapshotPath, *snapshotEvery, func(err error) {
				log.Printf("planserver: snapshot failed: %v", err)
			})
		}
	}

	// Connection handling must be as bounded as the admission layers
	// behind it: without read/idle timeouts, slow or idle connections pin
	// goroutines before a request ever reaches the intake gate.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()

	// Graceful shutdown: drain in-flight requests, then persist the drained
	// cache.
	fmt.Println("planserver: shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("planserver: drain incomplete: %v", err)
	}
	if node != nil && *snapshotPath != "" {
		if st, err := node.Snapshot(*snapshotPath); err != nil {
			log.Printf("planserver: final snapshot failed: %v", err)
		} else {
			fmt.Printf("planserver: final snapshot: %d entries (%d bytes)\n", st.Entries, st.Bytes)
		}
	}
}
