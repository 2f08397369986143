package alpacomm

import (
	"context"
	"fmt"

	"alpacomm/internal/resharding"
)

// Planner is the session API every layer of the system consumes: one
// object owning the topology, the translation-canonical plan cache, the
// autotune candidate cache and the default planning options, with a single
// cancellable entry point per operation. A context deadline or
// cancellation reaches every layer below — queued admission waits,
// coalesced cache waits, and the autotuner's DFS between node-budget
// slices — so a disconnected caller aborts heavy work instead of riding
// it out.
//
// Construct with NewPlanner and the With* options; a zero-config session
// owns private unbounded caches:
//
//	planner := alpacomm.NewPlanner(
//		alpacomm.WithTopology(cluster),
//		alpacomm.WithLRUCache(4096),
//	)
//	plan, sim, err := planner.Plan(ctx, task, opts)
type Planner struct {
	*resharding.Planner
}

// PlannerOption configures a Planner session at construction.
type PlannerOption = resharding.PlannerOption

// WithTopology pins the session to one hardware topology; planning a task
// that lives on a different topology fails immediately.
func WithTopology(t Topology) PlannerOption { return resharding.WithTopology(t) }

// WithCache supplies the session's plan cache (share one across sessions
// to reuse plans between congruent jobs).
var WithCache = resharding.WithCache

// WithLRUCache bounds the session's plan cache to n entries with LRU
// eviction (n <= 0 means unbounded).
var WithLRUCache = resharding.WithLRUCache

// WithAutotuneCache supplies the separate cache memoizing autotune
// candidate plans.
var WithAutotuneCache = resharding.WithAutotuneCache

// WithAutotuneGrid replaces the strategy x scheduler grid Autotune
// searches (nil/empty = the full DefaultAutotuneGrid).
var WithAutotuneGrid = resharding.WithAutotuneGrid

// WithParallelism bounds the session's autotune fan-out (0 = GOMAXPROCS);
// results are identical for every worker count.
var WithParallelism = resharding.WithParallelism

// WithDefaultPlanOptions sets the options a zero ReshardOptions value
// plans under.
var WithDefaultPlanOptions = resharding.WithDefaultPlanOptions

// WithFaults overlays a deterministic degradation (FaultSet) on every
// task planned through the session; see Planner.ReplanDegraded for
// per-call overlays on a healthy session.
var WithFaults = resharding.WithFaults

// NewPlanner builds a planning session; see Planner.
func NewPlanner(opts ...PlannerOption) *Planner {
	return &Planner{resharding.NewPlanner(opts...)}
}

// BoundaryPlan is one stage boundary's plan within a training job.
type BoundaryPlan struct {
	// Boundary is the stage-boundary index (stage Boundary -> Boundary+1).
	Boundary int
	// Tensor names the workload tensor crossing the boundary.
	Tensor string
	// Key is the boundary's canonical cache key: congruent boundaries
	// share it, and shared keys were planned exactly once.
	Key string
	// Plan is the session's plan. Boundaries that hit a congruent cache
	// entry carry the shared plan with devices of the first congruent
	// boundary planned — see ReshardCache.
	Plan *ReshardPlan
	// Sim is the plan's simulated timing (exact for this boundary even on
	// a translated hit).
	Sim *ReshardResult
}

// PlanBoundaries plans the resharding of every stage boundary of the job
// through the session in one cancellable call — the library-level
// equivalent of the service's /v2/plan:batch. Congruent boundaries (the
// common case: every GPT boundary reshards the same tensor between
// congruent meshes) collapse to one planner computation via the session
// cache; the returned slice lists every boundary tensor in workload order.
func (p *Planner) PlanBoundaries(ctx context.Context, job *TrainingJob) ([]BoundaryPlan, error) {
	if job == nil || job.Workload == nil {
		return nil, fmt.Errorf("alpacomm: PlanBoundaries: nil job or workload")
	}
	if err := job.Workload.Validate(); err != nil {
		return nil, err
	}
	meshes, err := job.StageMeshes()
	if err != nil {
		return nil, err
	}
	out := make([]BoundaryPlan, 0, len(job.Workload.Boundaries))
	for _, bt := range job.Workload.Boundaries {
		if bt.Boundary < 0 || bt.Boundary+1 >= len(meshes) {
			return nil, fmt.Errorf("alpacomm: boundary tensor %q crosses boundary %d of a %d-stage job", bt.Name, bt.Boundary, len(meshes))
		}
		task, err := job.boundaryTask(meshes, bt)
		if err != nil {
			return nil, err
		}
		opts := p.ResolveOptions(job.Reshard)
		// TaskKey folds the session's fault overlay (if any) into the key,
		// so the reported Key always matches what PlanKeyed plans under.
		key, _, err := p.TaskKey(task, opts)
		if err != nil {
			return nil, fmt.Errorf("alpacomm: boundary %d tensor %q: %w", bt.Boundary, bt.Name, err)
		}
		plan, sim, err := p.PlanKeyed(ctx, key, task, opts)
		if err != nil {
			return nil, fmt.Errorf("alpacomm: boundary %d tensor %q: %w", bt.Boundary, bt.Name, err)
		}
		out = append(out, BoundaryPlan{Boundary: bt.Boundary, Tensor: bt.Name, Key: key, Plan: plan, Sim: sim})
	}
	return out, nil
}
