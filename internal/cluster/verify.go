package cluster

import (
	"fmt"

	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
	"alpacomm/internal/sharding"
)

// VerifyFill turns a peer's wire response into a locally trusted
// (plan, simulation) pair, or rejects it. No served path calls it: a tier
// node plans its own misses, and only Node.Fetch (kept for the benchmark's
// probes) verifies through it. It does not catch every wrong plan: a launch
// order swapped between units whose swap leaves the simulation unchanged
// passes, so a fill it accepts need not be the bytes the node would compute. The receiving node rebuilds the
// plan against its OWN decomposition of the problem — the peer only
// contributes the sender choice and launch order — validates that every
// choice is one the planner could legally have made, re-simulates the plan
// trace-free on the local network model, and compares the result against
// the peer's claimed numbers. Planning and simulation are deterministic
// and the binary wire format round-trips float64 bits exactly (JSON's
// shortest-float encoding round-trips too), so an honest peer matches
// exactly; any mismatch — a corrupt frame, a buggy planner, a byzantine
// peer claiming a better makespan than its plan achieves — is rejected
// and never enters this node's cache.
func VerifyFill(task *sharding.Task, opts resharding.Options, resp *service.PlanResponse) (*resharding.Plan, *resharding.SimResult, error) {
	n := len(task.Units)
	if resp == nil {
		return nil, nil, fmt.Errorf("cluster: fill rejected: no plan in response")
	}
	if len(resp.Senders) != n || len(resp.Order) != n {
		return nil, nil, fmt.Errorf("cluster: fill rejected: plan shape mismatch (%d senders, %d order entries for %d units)",
			len(resp.Senders), len(resp.Order), n)
	}
	// Senders must be legal per unit and the order a permutation — the
	// same invariants a local planner output holds. Checking them first
	// bounds what the simulation below can see, so a malformed fill can
	// never index outside the topology.
	senderOf := make(map[int]int, n)
	for i, dev := range resp.Senders {
		legal := false
		for _, s := range task.Units[i].Senders {
			if s == dev {
				legal = true
				break
			}
		}
		if !legal {
			return nil, nil, fmt.Errorf("cluster: fill rejected: unit %d sender %d is not a legal sender", i, dev)
		}
		senderOf[i] = dev
	}
	seen := make([]bool, n)
	for _, idx := range resp.Order {
		if idx < 0 || idx >= n || seen[idx] {
			return nil, nil, fmt.Errorf("cluster: fill rejected: order is not a permutation of unit indices")
		}
		seen[idx] = true
	}
	plan := &resharding.Plan{
		Task:     task,
		Opts:     opts,
		SenderOf: senderOf,
		Order:    append([]int(nil), resp.Order...),
	}
	sim, err := plan.SimulateNoTrace()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: fill rejected: re-simulation failed: %v", err)
	}
	if sim.Makespan != resp.MakespanSeconds || sim.NumOps != resp.NumOps || sim.EffectiveGbps != resp.EffectiveGbps {
		return nil, nil, fmt.Errorf("cluster: fill rejected: claimed makespan %g / %d ops / %g Gbps, re-simulated %g / %d / %g",
			resp.MakespanSeconds, resp.NumOps, resp.EffectiveGbps, sim.Makespan, sim.NumOps, sim.EffectiveGbps)
	}
	return plan, sim, nil
}
