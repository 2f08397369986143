package resharding

import (
	"context"
	"fmt"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
)

// Planner is a planning session: one object owning everything the paper's
// workflow threads by hand — the topology the session plans against, the
// translation-canonical plan cache, the separate autotune candidate cache,
// the strategy x scheduler grid, the worker budget and the session's
// default planning options. Every entry point takes a context.Context and
// honors it end to end: cancellation is checked between autotune
// candidates, polled inside the ensemble DFS between node-budget slices,
// and observed by coalesced cache waiters, so a deadline or a disconnected
// caller aborts queued grid searches instead of riding them out.
//
// The zero-config session (NewPlanner()) owns a private unbounded plan
// cache and a private autotune cache; long-lived services bound both with
// WithLRUCache or share caches across sessions with WithCache /
// WithAutotuneCache. A Planner is safe for concurrent use.
type Planner struct {
	topo          mesh.Topology
	cache         *PlanCache
	autotuneCache *PlanCache
	grid          []AutotuneCandidate
	workers       int
	defaults      Options
	// faults, when non-empty, is the session-wide degradation overlay:
	// every task planned through the session is rebound to a mesh.Faulted
	// wrap of its topology first. See WithFaults.
	faults mesh.FaultSet
	// noTrace flips the session's caches to trace-free simulation at
	// construction; see WithTraceFreeSim.
	noTrace bool
}

// ReplanStats is the replan block of a server's /v2/stats. Every replan is
// the cold plan of its key and is counted by the plan cache like any other
// fill, so nothing writes these fields: they read 0, and stay only because
// bench/'s layer ladder reads them until ROADMAP 7(a) drops that probe.
type ReplanStats struct {
	CacheHits    int64 `json:"cache_hits"`
	WarmIdentity int64 `json:"warm_identity"`
	WarmSearch   int64 `json:"warm_search"`
	WarmRejected int64 `json:"warm_rejected"`
	WarmInvalid  int64 `json:"warm_invalid"`
	Cold         int64 `json:"cold"`
}

// PlannerOption configures a Planner at construction.
type PlannerOption func(*Planner)

// WithTopology pins the session to one hardware topology: every task
// planned through the session must live on it (mesh.SameTopology), turning
// a cross-session mix-up into an immediate error instead of a silently
// wrong cache key.
func WithTopology(t mesh.Topology) PlannerOption {
	return func(p *Planner) { p.topo = t }
}

// WithCache supplies the session's plan cache (shared caches let congruent
// boundaries reuse plans across sessions). Nil is ignored.
func WithCache(c *PlanCache) PlannerOption {
	return func(p *Planner) {
		if c != nil {
			p.cache = c
		}
	}
}

// WithLRUCache bounds the session's plan cache to n entries with
// least-recently-used eviction (n <= 0 means unbounded).
func WithLRUCache(n int) PlannerOption {
	return func(p *Planner) { p.cache = NewLRUPlanCache(n) }
}

// WithAutotuneCache supplies the cache memoizing autotune candidate plans.
// It is separate from the plan cache by default so a grid search's ~20
// derived-seed entries cannot evict the hot plan working set; pass the
// session's plan cache here to deliberately share one pool. Nil is
// ignored.
func WithAutotuneCache(c *PlanCache) PlannerOption {
	return func(p *Planner) {
		if c != nil {
			p.autotuneCache = c
		}
	}
}

// WithAutotuneGrid replaces the candidate grid Autotune searches; nil or
// empty means DefaultAutotuneGrid.
func WithAutotuneGrid(grid []AutotuneCandidate) PlannerOption {
	return func(p *Planner) { p.grid = grid }
}

// WithParallelism bounds the session's autotune fan-out (0 = GOMAXPROCS).
// Results are identical for every worker count.
func WithParallelism(workers int) PlannerOption {
	return func(p *Planner) { p.workers = workers }
}

// WithFaults overlays a deterministic degradation (mesh.FaultSet) on
// every task planned through the session: before planning, the task is
// rebound to a mesh.Faulted wrap of its own topology, so netsim costs,
// plans and cache keys all reflect the degraded fabric. The overlay is
// folded into the topology fingerprint, so a session with faults and a
// healthy session sharing one cache never share entries. An empty fault
// set is a no-op. Overlay validation (host ranges, detour existence)
// happens per plan call, against the task's topology.
func WithFaults(fs mesh.FaultSet) PlannerOption {
	return func(p *Planner) { p.faults = fs }
}

// WithTraceFreeSim makes the session's caches simulate new entries with
// Plan.SimulateNoTrace: timing fields are identical to a full simulation,
// but SimResult.Events and SimResult.Utilization are nil. Serving layers
// use this — responses carry makespans, never traces, and rendering the
// per-op event timeline dominates a cache fill's allocations. The switch
// applies to whatever caches the session ends up with, including ones
// supplied via WithCache/WithAutotuneCache/WithLRUCache.
func WithTraceFreeSim() PlannerOption {
	return func(p *Planner) { p.noTrace = true }
}

// WithDefaultPlanOptions sets the options a call with a zero Options value
// plans under (strategy, scheduler, chunking, budgets, seed).
//
// Note the sentinel collision: the zero Options value is also the literal
// SendRecv+SchedNaive configuration, so a session with defaults set cannot
// receive that exact request as a zero value — it would be read as "use
// the session defaults". To request the send-recv/naive baseline through
// such a session, make the value non-zero (e.g. set Seed or Trials
// explicitly); sessions without defaults are unaffected.
func WithDefaultPlanOptions(o Options) PlannerOption {
	return func(p *Planner) { p.defaults = o }
}

// NewPlanner builds a session from the options; see Planner for defaults.
func NewPlanner(opts ...PlannerOption) *Planner {
	p := &Planner{}
	for _, o := range opts {
		o(p)
	}
	if p.cache == nil {
		p.cache = NewPlanCache()
	}
	if p.autotuneCache == nil {
		p.autotuneCache = NewPlanCache()
	}
	if p.noTrace {
		p.cache.SetSimulateNoTrace(true)
		p.autotuneCache.SetSimulateNoTrace(true)
	}
	return p
}

// Cache returns the session's plan cache (e.g. to pre-warm or inspect it).
func (p *Planner) Cache() *PlanCache { return p.cache }

// AutotuneCache returns the cache holding autotune candidate plans.
func (p *Planner) AutotuneCache() *PlanCache { return p.autotuneCache }

// Topology returns the session's pinned topology, nil when unpinned.
func (p *Planner) Topology() mesh.Topology { return p.topo }

// Faults returns the session-wide degradation overlay (empty for a
// healthy session).
func (p *Planner) Faults() mesh.FaultSet { return p.faults }

// ResolveOptions returns the fully defaulted options a per-call value
// plans under: a zero value means the session's defaults, and package
// defaults fill whatever is still unset. CacheKey(task,
// ResolveOptions(opts)) is the canonical key a session call uses.
func (p *Planner) ResolveOptions(opts Options) Options {
	if opts == (Options{}) {
		opts = p.defaults
	}
	return opts.WithDefaults()
}

// resolve applies ResolveOptions and validates the task against the
// pinned topology. The check is structural (same instance or same
// fingerprint — SameTopology covers both), so equal topologies built
// independently still share the session — which is exactly when the
// translation-canonical cache keys remain valid.
func (p *Planner) resolve(task *sharding.Task, opts Options) (Options, error) {
	if task == nil {
		return opts, fmt.Errorf("resharding: planner: nil task")
	}
	if p.topo != nil && !mesh.SameTopology(task.Src.Mesh.Topo, p.topo) {
		return opts, fmt.Errorf("resharding: planner: task topology differs from the session's")
	}
	return p.ResolveOptions(opts), nil
}

// degradeTask rebinds the task to a mesh.Faulted overlay of its own
// topology. An empty fault set returns the task unchanged — the identity
// that keeps healthy keys healthy. Overlays stack: a task already living
// on an overlay is wrapped again.
func degradeTask(task *sharding.Task, fs mesh.FaultSet) (*sharding.Task, error) {
	if fs.Empty() {
		return task, nil
	}
	ft, err := mesh.NewFaulted(task.Src.Mesh.Topo, fs)
	if err != nil {
		return nil, fmt.Errorf("resharding: fault overlay: %w", err)
	}
	degraded, err := task.OnTopology(ft)
	if err != nil {
		return nil, fmt.Errorf("resharding: fault overlay: %w", err)
	}
	return degraded, nil
}

// Plan returns the session's plan and simulation for the task under the
// options (zero opts = the session defaults), serving congruent reshardings
// from the session cache. On a translated cache hit the plan's devices
// belong to the first congruent task planned — see PlanCache.
func (p *Planner) Plan(ctx context.Context, task *sharding.Task, opts Options) (*Plan, *SimResult, error) {
	opts, err := p.resolve(task, opts)
	if err != nil {
		return nil, nil, err
	}
	if task, err = degradeTask(task, p.faults); err != nil {
		return nil, nil, err
	}
	return p.cache.PlanAndSimulateKeyedContext(ctx, CacheKey(task, opts), task, opts)
}

// ReplanDegraded re-plans a (possibly cached) boundary against a fault
// overlay without rebuilding anything: the task — which may already be
// planned and cached healthy through this session — is rebound to a
// mesh.Faulted wrap of its own topology and planned through the same
// session cache. The overlay is part of the cache key (host fingerprints
// and pairwise fabric properties change under it), so degraded plans
// partition away from healthy ones automatically — each distinct overlay
// a churn timeline visits gets its own CacheKey, re-planning the same
// overlay twice is a cache hit, and healing back to an earlier FaultSet
// (including the empty one) hits that earlier entry byte-identically. The
// given fault set applies instead of any session-wide WithFaults overlay;
// an empty fault set degrades nothing and is byte-identical to Plan. A miss
// plans cold from the degraded task alone: whatever the session holds for
// other overlays, the plan is the cold plan of its key.
func (p *Planner) ReplanDegraded(ctx context.Context, task *sharding.Task, opts Options, fs mesh.FaultSet) (*Plan, *SimResult, error) {
	opts, err := p.resolve(task, opts)
	if err != nil {
		return nil, nil, err
	}
	if task, err = degradeTask(task, fs); err != nil {
		return nil, nil, err
	}
	return p.cache.PlanAndSimulateKeyedContext(ctx, CacheKey(task, opts), task, opts)
}

// TaskKey returns the canonical cache key a session call plans the task
// under — options resolved and the session's WithFaults overlay applied —
// plus the (possibly degraded) task the key describes. This is the key
// PlanKeyed expects.
func (p *Planner) TaskKey(task *sharding.Task, opts Options) (string, *sharding.Task, error) {
	opts, err := p.resolve(task, opts)
	if err != nil {
		return "", nil, err
	}
	if task, err = degradeTask(task, p.faults); err != nil {
		return "", nil, err
	}
	return CacheKey(task, opts), task, nil
}

// PlanKeyed is Plan for callers that already hold the canonical
// CacheKey(task, opts) of defaulted options — e.g. a server that rendered
// it once for request coalescing. On a session with a WithFaults overlay
// the task is rebound to the overlay first and the supplied key is
// recomputed for the degraded task (use TaskKey to obtain it up front),
// so a healthy key can never alias a degraded computation.
func (p *Planner) PlanKeyed(ctx context.Context, key string, task *sharding.Task, opts Options) (*Plan, *SimResult, error) {
	if !p.faults.Empty() {
		degraded, err := degradeTask(task, p.faults)
		if err != nil {
			return nil, nil, err
		}
		task = degraded
		key = CacheKey(task, opts)
	}
	return p.cache.PlanAndSimulateKeyedContext(ctx, key, task, opts)
}

// PlanDraft is PlanKeyed for a caller that holds the problem's draft (NewDraft
// on the task and defaulted options the key was rendered from): a miss
// finishes d instead of drafting again. Sessions with their own WithFaults
// overlay fall back to PlanKeyed, which owns keying.
func (p *Planner) PlanDraft(ctx context.Context, key string, d *Draft) (*Plan, *SimResult, error) {
	if !p.faults.Empty() {
		return p.PlanKeyed(ctx, key, d.task, d.opts)
	}
	return p.cache.PlanAndSimulateKeyedFillContext(ctx, key, d.task, d.opts, d.Plan)
}

// Simulate returns the simulated timing of the task under the options,
// planning it only if no congruent resharding is cached.
func (p *Planner) Simulate(ctx context.Context, task *sharding.Task, opts Options) (*SimResult, error) {
	_, sim, err := p.Plan(ctx, task, opts)
	return sim, err
}

// Autotune searches the session's candidate grid for the fastest plan of
// the task, fanning out over the session's worker budget and memoizing
// candidate plans in the session's autotune cache — so the congruent
// boundaries of a pipeline cost one grid sweep total. base options follow
// Plan's zero-value rule.
func (p *Planner) Autotune(ctx context.Context, task *sharding.Task, base Options) (*AutotuneResult, error) {
	return p.AutotuneWorkers(ctx, task, base, p.workers)
}

// AutotuneWorkers is Autotune with a per-call worker override (<= 0 means
// the session's parallelism); the result is identical for every worker
// count.
func (p *Planner) AutotuneWorkers(ctx context.Context, task *sharding.Task, base Options, workers int) (*AutotuneResult, error) {
	base, err := p.resolve(task, base)
	if err != nil {
		return nil, err
	}
	if task, err = degradeTask(task, p.faults); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = p.workers
	}
	return AutotuneContext(ctx, task, AutotuneOptions{
		Base:       base,
		Candidates: p.grid,
		Workers:    workers,
		Cache:      p.autotuneCache,
	})
}
