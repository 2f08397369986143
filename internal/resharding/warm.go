package resharding

import (
	"context"
	"fmt"

	"alpacomm/internal/schedule"
	"alpacomm/internal/sharding"
)

// Incremental warm replanning: when a fleet's topology churns — a link
// browns out, a host straggles, a fault heals — the boundary being served
// usually already has a plan for the previous overlay. Restarting the
// ensemble DFS from scratch re-pays the full cold-plan node budget for
// every step of churn. WarmReplanContext instead diffs the two overlays
// through the host-level problem instance the scheduler actually solves:
//
//   - units whose host-task (durations, sender hosts, receiver hosts) are
//     unchanged between the overlays are unimpacted; when no unit is
//     impacted the instance is identical and the rebound incumbent IS the
//     plan a cold search would return — no search at all (link faults
//     never change durations, which cost only per-host NIC bandwidth, so
//     a single link-down replans in simulation time);
//   - otherwise the impacted set drives a warm-started DFS: unimpacted
//     units have their senders pinned to the incumbent's choices, the
//     incumbent seeds the search bound from node one, and the node budget
//     is scaled down by the impacted fraction;
//   - prove-don't-trust acceptance: the warm plan is re-simulated against
//     the rebound incumbent and rejected — the incumbent served instead —
//     if it is ever worse, so a warm replan's makespan is never worse
//     than the incumbent's rebound.
type WarmInfo struct {
	// Mode is how the plan was produced; one of the Warm* constants.
	Mode string
	// ImpactedUnits counts units whose host-level task changed between the
	// overlays; TotalUnits is the decomposition size.
	ImpactedUnits, TotalUnits int
	// DFSNodes is the node budget the warm search ran under; 0 when no
	// search ran (identity and cold modes).
	DFSNodes int
	// WarmMakespan / IncumbentMakespan are the trace-free simulated
	// makespans compared by the acceptance rule (0 when no search ran).
	WarmMakespan, IncumbentMakespan float64
}

// Warm replan modes reported in WarmInfo.Mode.
const (
	// WarmIdentity: no unit's host task changed; the rebound incumbent was
	// returned without any search.
	WarmIdentity = "identity"
	// WarmSearch: a pinned, incumbent-seeded search ran and its plan passed
	// the re-simulation acceptance rule.
	WarmSearch = "search"
	// WarmIncumbent: the search result re-simulated worse than the rebound
	// incumbent, which was served instead.
	WarmIncumbent = "incumbent"
	// WarmCold: no usable incumbent (rebind failed or the incumbent was
	// invalid for the task); a cold plan was computed.
	WarmCold = "cold"
)

// MinWarmDFSNodes floors the impact-scaled node budget of a warm search,
// so a tiny impacted set still gets enough nodes to reorder itself.
const MinWarmDFSNodes = 1024

// warmBudget scales the cold node budget by the impacted fraction,
// flooring at MinWarmDFSNodes and capping at the cold budget.
func warmBudget(coldNodes, impacted, total int) int {
	if coldNodes <= 0 {
		coldNodes = DefaultAutotuneDFSNodes
	}
	b := coldNodes * impacted / total
	if b < MinWarmDFSNodes {
		b = MinWarmDFSNodes
	}
	if b > coldNodes {
		b = coldNodes
	}
	return b
}

// rebindSenders translates an incumbent plan's sender devices into a
// congruent task's device space by logical mesh position (the identity
// when the plan was computed for this very task) and reports false when
// the decompositions do not line up. This mirrors the translation rule of
// PlanCache: tasks sharing a cache key have congruent meshes, so the
// sender for unit i is the device at the same mesh position.
func rebindSenders(incumbent *Plan, task *sharding.Task) (map[int]int, bool) {
	if len(incumbent.SenderOf) != len(task.Units) || len(incumbent.Order) != len(task.Units) {
		return nil, false
	}
	senderOf := make(map[int]int, len(task.Units))
	if incumbent.Task == task {
		for i, d := range incumbent.SenderOf {
			senderOf[i] = d
		}
		return senderOf, true
	}
	if len(incumbent.Task.Src.Mesh.Devices) != len(task.Src.Mesh.Devices) {
		return nil, false
	}
	pos := make(map[int]int, len(incumbent.Task.Src.Mesh.Devices))
	for idx, d := range incumbent.Task.Src.Mesh.Devices {
		pos[d] = idx
	}
	for i := range task.Units {
		dev, ok := incumbent.SenderOf[i]
		if !ok {
			return nil, false
		}
		p, ok := pos[dev]
		if !ok {
			return nil, false
		}
		senderOf[i] = task.Src.Mesh.Devices[p]
	}
	return senderOf, true
}

// sameHostTask reports whether a unit's host-level task is unchanged
// between two overlay bindings of the same boundary.
func sameHostTask(a, b *schedule.Task) bool {
	if a.ID != b.ID || a.Duration != b.Duration ||
		len(a.SenderHosts) != len(b.SenderHosts) || len(a.ReceiverHosts) != len(b.ReceiverHosts) {
		return false
	}
	for i := range a.SenderHosts {
		if a.SenderHosts[i] != b.SenderHosts[i] {
			return false
		}
	}
	for i := range a.ReceiverHosts {
		if a.ReceiverHosts[i] != b.ReceiverHosts[i] {
			return false
		}
	}
	return true
}

// ImpactedUnits diffs the host-level problem instances a boundary poses
// under two overlay bindings (the same devices on two topologies) and
// reports, per unit, whether its host task changed — different duration,
// sender hosts or receiver hosts. Units outside the impacted set can keep
// their incumbent senders: nothing the scheduler scores about them moved.
func ImpactedUnits(fromTask, toTask *sharding.Task, opts Options) ([]bool, int, error) {
	opts = opts.WithDefaults()
	if len(fromTask.Units) != len(toTask.Units) {
		return nil, 0, fmt.Errorf("resharding: impacted units: decompositions differ (%d vs %d units)",
			len(fromTask.Units), len(toTask.Units))
	}
	fromHT := buildHostTasks(fromTask, opts)
	toHT := buildHostTasks(toTask, opts)
	impacted := make([]bool, len(toHT))
	count := 0
	for i := range toHT {
		if !sameHostTask(&fromHT[i], &toHT[i]) {
			impacted[i] = true
			count++
		}
	}
	return impacted, count, nil
}

// WarmReplanContext plans task — a boundary bound to the overlay being
// replanned onto — warm-started from incumbent, a (possibly translated)
// cached plan for fromTask, the same boundary bound to the overlay being
// replanned away from. See the package comment above WarmInfo for the
// impact/pinning/acceptance pipeline. The returned simulation is non-nil
// only when deciding the plan required one (the search-mode acceptance
// rule), and is then trace-free; in identity and cold modes it is nil —
// the replan itself needs no simulation, and the cache layer (or any
// other caller that wants timings) simulates the returned plan under its
// own trace configuration. A nil incumbent, a failed rebind or a
// non-ensemble scheduler falls back to a cold NewPlanContext with
// Mode == WarmCold; the result is then bit-identical to cold planning.
func WarmReplanContext(ctx context.Context, task *sharding.Task, opts Options, fromTask *sharding.Task, incumbent *Plan) (*Plan, *SimResult, WarmInfo, error) {
	opts = opts.WithDefaults()
	info := WarmInfo{Mode: WarmCold, TotalUnits: len(task.Units)}
	cold := func() (*Plan, *SimResult, WarmInfo, error) {
		plan, err := NewPlanContext(ctx, task, opts)
		if err != nil {
			return nil, nil, info, err
		}
		return plan, nil, info, nil
	}
	// Only the ensemble scheduler pays a search worth warming; the
	// closed-form schedulers replan cold in microseconds.
	if incumbent == nil || fromTask == nil || opts.Scheduler != SchedEnsemble {
		return cold()
	}
	senderOf, ok := rebindSenders(incumbent, task)
	if !ok {
		return cold()
	}

	hostTasks := buildHostTasks(task, opts)
	topo := task.Src.Mesh.Topo
	incHostPlan := schedule.Plan{
		Sender: make(map[int]int, len(senderOf)),
		Order:  append([]int(nil), incumbent.Order...),
	}
	for i, dev := range senderOf {
		incHostPlan.Sender[i] = topo.HostOf(dev)
	}
	// Cold fallback when the incumbent rebinds as invalid for this task —
	// e.g. a cached plan from a congruent boundary whose sender replicas do
	// not line up after translation.
	if err := schedule.Validate(hostTasks, incHostPlan); err != nil {
		return cold()
	}

	impacted, count, err := ImpactedUnits(fromTask, task, opts)
	if err != nil {
		return cold()
	}
	info.ImpactedUnits = count

	// rebound materializes the incumbent on this task: same senders, same
	// order, re-costed host tasks.
	rebound := func() *Plan {
		return &Plan{
			Task:      task,
			Opts:      opts,
			SenderOf:  senderOf,
			Order:     append([]int(nil), incumbent.Order...),
			HostPlan:  incHostPlan,
			HostTasks: hostTasks,
		}
	}

	if count == 0 {
		// The degraded instance is identical to the incumbent's, so a cold
		// search would reproduce the incumbent's host plan bit for bit —
		// only the chunk-level simulation (detours, browned-out links) can
		// differ. Skip the search entirely; the caller simulates if it
		// wants timings.
		info.Mode = WarmIdentity
		return rebound(), nil, info, nil
	}

	// Pin the senders of unimpacted units to the incumbent's choices and
	// let the DFS re-decide only the impacted ones, under a node budget
	// scaled to the impacted fraction.
	pinned := make([]schedule.Task, len(hostTasks))
	copy(pinned, hostTasks)
	for i := range pinned {
		if !impacted[i] {
			pinned[i].SenderHosts = []int{incHostPlan.Sender[i]}
		}
	}
	info.DFSNodes = warmBudget(opts.DFSNodes, count, len(hostTasks))
	rng := ensembleRand(opts.Seed)
	stop := func() bool { return ctx.Err() != nil }
	hostPlan := schedule.EnsembleWarmStart(pinned, info.DFSNodes, opts.Trials, rng, incHostPlan, stop)
	if err := ctx.Err(); err != nil {
		return nil, nil, info, err
	}
	// Senders were chosen from pinned subsets of the real candidate sets,
	// so the plan must validate against the unpinned instance too.
	if err := schedule.Validate(hostTasks, hostPlan); err != nil {
		return nil, nil, info, fmt.Errorf("resharding: warm scheduler produced invalid plan: %v", err)
	}
	warmSenderOf, err := resolveDeviceSenders(task, hostPlan)
	if err != nil {
		return nil, nil, info, err
	}
	warmPlan := &Plan{
		Task:      task,
		Opts:      opts,
		SenderOf:  warmSenderOf,
		Order:     hostPlan.Order,
		HostPlan:  hostPlan,
		HostTasks: hostTasks,
	}

	// Prove-don't-trust acceptance: the host-level objective ranks plans by
	// an estimate; only the chunk-level simulation is authoritative. Accept
	// the warm plan iff it re-simulates no worse than the rebound incumbent.
	warmSim, err := warmPlan.SimulateNoTrace()
	if err != nil {
		return nil, nil, info, err
	}
	incPlan := rebound()
	incSim, err := incPlan.SimulateNoTrace()
	if err != nil {
		return nil, nil, info, err
	}
	info.WarmMakespan, info.IncumbentMakespan = warmSim.Makespan, incSim.Makespan
	if warmSim.Makespan > incSim.Makespan {
		info.Mode = WarmIncumbent
		return incPlan, incSim, info, nil
	}
	info.Mode = WarmSearch
	return warmPlan, warmSim, info, nil
}
