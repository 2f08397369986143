// Package resharding is the paper's core contribution: planning, timing
// and executing cross-mesh resharding tasks.
//
// A sharding.Task (the decomposition into unit communication tasks) is
// turned into a Plan by choosing a communication strategy (§3.1), a sender
// per unit task and a launch order (§3.2). The Plan can then be simulated
// on the netsim cluster model to obtain completion time and effective
// bandwidth, and executed on the tensor data plane to verify that every
// destination device receives exactly the bytes its spec requires.
package resharding

import "fmt"

// Strategy selects how one unit communication task is carried out (§3.1).
type Strategy int

const (
	// SendRecv is the naive baseline (Fig. 3a): the sender transmits a
	// full copy to every receiver device, one by one.
	SendRecv Strategy = iota
	// LocalAllGather (Fig. 3b): the sender scatters 1/B of the slice to
	// each device of a receiver host, which then all-gathers over fast
	// intra-host links. One copy crosses the network per receiver host.
	LocalAllGather
	// GlobalAllGather (Fig. 3c): the sender scatters 1/(A·B) to every
	// receiver device, followed by one global ring all-gather.
	GlobalAllGather
	// Broadcast (Fig. 3d) is the paper's strategy: a pipelined chunked
	// chain through all receivers, provably within t·(K+hops)/K of the
	// lower bound t.
	Broadcast
	// Alpa models the all-gather-based baseline used by Alpa/Megatron-LM:
	// like the all-gather strategies but it cannot handle uneven
	// partitions and falls back to SendRecv when slice sizes do not divide
	// evenly (§5.1.1), and its scatter and all-gather phases are separate
	// launches (no pipelining between them).
	Alpa
	// Signal is the hypothetical upper bound (§4): every unit task ships a
	// single byte, preserving dependencies while removing almost all cost.
	Signal
)

func (s Strategy) String() string {
	switch s {
	case SendRecv:
		return "send/recv"
	case LocalAllGather:
		return "send/recv+local-allgather"
	case GlobalAllGather:
		return "send/recv+global-allgather"
	case Broadcast:
		return "broadcast"
	case Alpa:
		return "alpa"
	case Signal:
		return "signal"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy parses a strategy name as used on command lines and in the
// plan-serving API. The empty string is the default strategy (Broadcast).
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "send-recv", "send/recv":
		return SendRecv, nil
	case "local-allgather":
		return LocalAllGather, nil
	case "global-allgather":
		return GlobalAllGather, nil
	case "broadcast", "":
		return Broadcast, nil
	case "alpa":
		return Alpa, nil
	case "signal":
		return Signal, nil
	default:
		return 0, fmt.Errorf("resharding: unknown strategy %q (want send-recv, local-allgather, global-allgather, broadcast, alpa or signal)", s)
	}
}

// Scheduler selects the §3.2 load-balancing/ordering algorithm.
type Scheduler int

const (
	// SchedNaive: lowest-indexed candidate sender, unit-task order.
	SchedNaive Scheduler = iota
	// SchedGreedyLoad: pick the sender with the lowest committed load for
	// each slice in order — the baseline systems' load balancing (§5.1.2).
	SchedGreedyLoad
	// SchedLoadBalanceOnly: LPT greedy over Eq. 4 (the "Load balance only"
	// ablation of Fig. 8).
	SchedLoadBalanceOnly
	// SchedEnsemble: best of naive, LPT, randomized-greedy and (small
	// problems) DFS-with-pruning — AlpaComm's configuration.
	SchedEnsemble
	// SchedDegraded: the search-free ensemble (best of naive, LPT and
	// greedy-load; no DFS, no randomized trials). This is what the serving
	// tier's SLO-aware admission controller plans with when the p99 budget
	// is at risk: bounded, seed-independent work per request. Because the
	// scheduler is part of CacheKey, degraded plans partition under their
	// own cache keys and never pollute full-quality entries.
	SchedDegraded
)

func (s Scheduler) String() string {
	switch s {
	case SchedNaive:
		return "naive"
	case SchedGreedyLoad:
		return "greedy-load"
	case SchedLoadBalanceOnly:
		return "loadbalance-only"
	case SchedEnsemble:
		return "ensemble"
	case SchedDegraded:
		return "greedy-degraded"
	default:
		return fmt.Sprintf("scheduler(%d)", int(s))
	}
}

// ParseScheduler parses a scheduler name as used on command lines and in
// the plan-serving API. The empty string is the default scheduler
// (SchedEnsemble).
func ParseScheduler(s string) (Scheduler, error) {
	switch s {
	case "naive":
		return SchedNaive, nil
	case "greedy-load":
		return SchedGreedyLoad, nil
	case "loadbalance", "loadbalance-only":
		return SchedLoadBalanceOnly, nil
	case "ensemble", "":
		return SchedEnsemble, nil
	case "greedy-degraded":
		return SchedDegraded, nil
	default:
		return 0, fmt.Errorf("resharding: unknown scheduler %q (want naive, greedy-load, loadbalance, loadbalance-only, ensemble or greedy-degraded)", s)
	}
}

// Options configures planning. Every budget is a count, so a plan is a
// pure function of the task, the topology and these options.
type Options struct {
	// Strategy for unit tasks. The zero value is SendRecv; ParseStrategy
	// reads an empty name as Broadcast.
	Strategy Strategy
	// Scheduler for load balance and ordering. The zero value is
	// SchedNaive; ParseScheduler reads an empty name as SchedEnsemble.
	Scheduler Scheduler
	// Chunks is the broadcast pipelining depth; 0 picks
	// collective.DefaultChunks per message.
	Chunks int
	// DFSNodes bounds the ensemble's DFS: it explores at most DFSNodes
	// search states (default DefaultDFSNodes; a negative budget explores
	// one).
	DFSNodes int
	// Trials is the randomized-greedy trial count (default 32).
	Trials int
	// Seed makes the randomized scheduler deterministic.
	Seed int64
}

// DefaultDFSNodes is the DFS node budget of options that set none.
const DefaultDFSNodes = 50000

// WithDefaults returns the options with unset fields replaced by the
// package defaults (DFSNodes DefaultDFSNodes, Trials 32). PlanCache keys
// are computed over defaulted options, so callers that need the canonical
// CacheKey of a request should default it the same way.
func (o Options) WithDefaults() Options {
	if o.DFSNodes == 0 {
		o.DFSNodes = DefaultDFSNodes
	}
	if o.Trials == 0 {
		o.Trials = 32
	}
	return o
}
