package resharding

import (
	"context"

	"alpacomm/internal/schedule"
	"alpacomm/internal/sharding"
)

// Incremental replanning: when a fleet's topology churns — a link browns
// out, a host straggles, a fault heals — the boundary being served usually
// already has a plan for the previous overlay. WarmReplanContext diffs the two
// overlays through the host-level problem instance the scheduler actually
// solves, and there are two cases and nothing else:
//
//   - no unit's host task (duration, sender hosts, receiver hosts) changed:
//     the instance is identical, so the rebound incumbent IS the plan a cold
//     search would return — no search at all (link faults never change
//     durations, which cost only per-host NIC bandwidth, so a single
//     link-down replans in simulation time);
//   - any unit changed: the ordinary cold ensemble runs on the new instance.
//     The incumbent is not offered to it — it could only win ties, and a tie
//     won by what happened to be cached makes the answer depend on cache
//     state.
//
// Either way the plan is the cold plan of (task, opts), whatever the cache
// held.
type WarmInfo struct {
	// Mode is how the plan was produced; one of the Warm* constants.
	Mode string
	// ImpactedUnits counts units whose host-level task changed between the
	// overlays; TotalUnits is the decomposition size.
	ImpactedUnits, TotalUnits int
}

// Warm replan modes reported in WarmInfo.Mode.
const (
	// WarmIdentity: no unit's host task changed; the rebound incumbent was
	// returned without any search.
	WarmIdentity = "identity"
	// WarmSearch: some unit's host task changed; the cold ensemble planned
	// the new instance.
	WarmSearch = "search"
	// WarmIncumbent is never produced; it stays because bench/ names it.
	WarmIncumbent = "incumbent"
	// WarmCold: no usable incumbent (none given, a non-ensemble scheduler,
	// or it rebound as invalid for the task); a cold plan was computed.
	WarmCold = "cold"
)

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

// WarmReplanContext plans task — a boundary bound to the overlay being
// replanned onto — given incumbent, a (possibly translated) cached plan for
// fromTask, the same boundary bound to the overlay being replanned away
// from; see the comment above WarmInfo for the two cases. The returned
// simulation is always nil: a replan needs none, and the cache layer (or any
// other caller that wants timings) simulates the returned plan under its own
// trace configuration. A nil incumbent, a non-ensemble scheduler or an
// incumbent that rebinds as invalid plans cold with Mode == WarmCold.
func WarmReplanContext(ctx context.Context, task *sharding.Task, opts Options, fromTask *sharding.Task, incumbent *Plan) (*Plan, *SimResult, WarmInfo, error) {
	d, err := NewDraft(task, opts)
	if err != nil {
		return nil, nil, WarmInfo{Mode: WarmCold, TotalUnits: len(task.Units)}, err
	}
	plan, info, err := d.replan(ctx, fromTask, incumbent)
	return plan, nil, info, err
}

// replan is WarmReplanContext on a draft: diff and cold branch share its host tasks.
func (d *Draft) replan(ctx context.Context, fromTask *sharding.Task, incumbent *Plan) (*Plan, WarmInfo, error) {
	info := WarmInfo{Mode: WarmCold, TotalUnits: len(d.task.Units)}
	// Only the ensemble scheduler pays a search worth skipping; the
	// closed-form schedulers replan cold in microseconds.
	if incumbent != nil && fromTask != nil && d.opts.Scheduler == SchedEnsemble && len(fromTask.Units) == len(d.task.Units) {
		// The old overlay's host tasks, one at a time into reused scratch.
		var scratch [16]int
		for i, u := range fromTask.Units {
			from, _ := unitHostTask(fromTask, d.opts, u, scratch[:0])
			if !sameHostTask(&from, &d.hostTasks[i]) {
				info.ImpactedUnits++
			}
		}
		if info.ImpactedUnits > 0 {
			info.Mode = WarmSearch
		} else if plan := reboundPlan(incumbent, d.task, d.opts, d.hostTasks); plan != nil {
			// The degraded instance is identical to the incumbent's, so a cold
			// search would reproduce the incumbent's host plan bit for bit —
			// only the chunk-level simulation (detours, browned-out links) can
			// differ. Skip the search entirely.
			info.Mode = WarmIdentity
			return plan, info, nil
		}
	}
	plan, err := d.Plan(ctx)
	return plan, info, err
}

// reboundPlan materializes the incumbent on task: same senders by mesh
// position, same order, the task's own host tasks. It returns nil when the
// incumbent does not rebind as a valid plan — e.g. a cached plan from a
// congruent boundary whose sender replicas do not line up after translation.
func reboundPlan(incumbent *Plan, task *sharding.Task, opts Options, hostTasks []schedule.Task) *Plan {
	senderOf, ok := rebindSenders(incumbent, task)
	if !ok {
		return nil
	}
	topo := task.Src.Mesh.Topo
	hostPlan := schedule.Plan{
		Sender: make(map[int]int, len(senderOf)),
		Order:  append([]int(nil), incumbent.Order...),
	}
	for i, dev := range senderOf {
		hostPlan.Sender[i] = topo.HostOf(dev)
	}
	if schedule.Validate(hostTasks, hostPlan) != nil {
		return nil
	}
	return &Plan{
		Task:      task,
		Opts:      opts,
		SenderOf:  senderOf,
		Order:     hostPlan.Order,
		HostPlan:  hostPlan,
		HostTasks: hostTasks,
		// The instance is the incumbent's, so a search would end as its did.
		Report: incumbent.Report,
	}
}
