package resharding

import (
	"context"
	"fmt"
	"sync/atomic"

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
	// replans counts how the session's replan steps were served; see
	// ReplanStats.
	replans replanCounters
}

// ReplanStats reports how a session's replan-on-churn steps were served:
// target-key cache hits (including empty fault deltas and heals back to an
// overlay already planned), each mode of WarmReplanContext, and cold
// replans that found no incumbent. Whatever the mode, the plan served is the
// cold plan of its key.
type ReplanStats struct {
	// CacheHits is replan steps whose target overlay was already cached.
	CacheHits int64 `json:"cache_hits"`
	// WarmIdentity is replans that proved the host-level instance unchanged
	// and returned the rebound incumbent without searching.
	WarmIdentity int64 `json:"warm_identity"`
	// WarmSearch is replans whose host-level instance changed, so the cold
	// ensemble planned it.
	WarmSearch int64 `json:"warm_search"`
	// WarmRejected is never incremented; it stays because bench/ reads it.
	WarmRejected int64 `json:"warm_rejected"`
	// WarmInvalid is identity replans whose incumbent rebound as invalid,
	// falling back to a cold plan.
	WarmInvalid int64 `json:"warm_invalid"`
	// Cold is replan steps with no cached incumbent.
	Cold int64 `json:"cold"`
}

// replanCounters is the atomic backing store of ReplanStats.
type replanCounters struct {
	hits, identity, search, invalid, cold atomic.Int64
}

func (c *replanCounters) note(info WarmInfo) {
	switch info.Mode {
	case WarmIdentity:
		c.identity.Add(1)
	case WarmSearch:
		c.search.Add(1)
	default:
		c.invalid.Add(1)
	}
}

// ReplanStats snapshots the session's replan counters.
func (p *Planner) ReplanStats() ReplanStats {
	return ReplanStats{
		CacheHits:    p.replans.hits.Load(),
		WarmIdentity: p.replans.identity.Load(),
		WarmSearch:   p.replans.search.Load(),
		WarmInvalid:  p.replans.invalid.Load(),
		Cold:         p.replans.cold.Load(),
	}
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
// an empty fault set degrades nothing and is byte-identical to Plan.
//
// The session's healthy plan, when cached, is the replan's incumbent:
// ReplanDegraded is ReplanDegradedFrom with an empty "from" overlay.
func (p *Planner) ReplanDegraded(ctx context.Context, task *sharding.Task, opts Options, fs mesh.FaultSet) (*Plan, *SimResult, error) {
	return p.ReplanDegradedFrom(ctx, task, opts, mesh.FaultSet{}, fs)
}

// ReplanDegradedFrom is the churn-timeline step: re-plan the boundary onto
// overlay "to", given the session's cached plan for overlay "from"
// (typically the timeline's previous step). When the target overlay's plan
// is already cached it is returned as-is — so an empty fault delta costs
// one lookup and returns the cached plan byte-identical, with no search at
// all. On a miss with a cached "from"-incumbent, the fill runs
// WarmReplanContext (impact diff: reuse the incumbent when nothing the
// scheduler scores moved, otherwise the cold ensemble); without one it
// plans cold. Either way the result is the cold plan of the target
// overlay's key and lands in the session cache under it.
func (p *Planner) ReplanDegradedFrom(ctx context.Context, task *sharding.Task, opts Options, from, to mesh.FaultSet) (*Plan, *SimResult, error) {
	opts, err := p.resolve(task, opts)
	if err != nil {
		return nil, nil, err
	}
	toTask, err := degradeTask(task, to)
	if err != nil {
		return nil, nil, err
	}
	fromTask, err := degradeTask(task, from)
	if err != nil {
		return nil, nil, err
	}
	return p.replanKeyed(ctx, CacheKey(toTask, opts), toTask, opts, nil, CacheKey(fromTask, opts), fromTask)
}

// replanKeyed serves one replan step given both canonical keys: target
// fast path first, then a warm or cold fill under the target key, which
// finishes d — the caller's draft of (task, opts) — or, given nil, its own.
func (p *Planner) replanKeyed(ctx context.Context, key string, task *sharding.Task, opts Options, d *Draft, fromKey string, fromTask *sharding.Task) (*Plan, *SimResult, error) {
	if plan, sim, ok := p.cache.LookupKeyed(key); ok {
		p.replans.hits.Add(1)
		return plan, sim, nil
	}
	var incumbent *Plan
	if fromKey != key {
		incumbent, _, _ = p.cache.LookupKeyed(fromKey)
	}
	if incumbent == nil {
		p.replans.cold.Add(1)
	}
	return p.cache.PlanAndSimulateKeyedFillContext(ctx, key, task, opts, func(ctx context.Context) (*Plan, error) {
		if d == nil {
			own, err := NewDraft(task, opts)
			if err != nil {
				return nil, err
			}
			d = &own
		}
		plan, info, err := d.replan(ctx, fromTask, incumbent)
		if err == nil && incumbent != nil {
			p.replans.note(info)
		}
		return plan, err
	})
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
// finishes d instead of drafting again. A non-nil fromTask, with its key
// fromKey, names the same boundary on the overlay being replanned away from
// (serving a degraded request: its fault-free parse), and a plan cached under
// fromKey is the fill's incumbent exactly as in ReplanDegradedFrom. Sessions
// with their own WithFaults overlay fall back to PlanKeyed, which owns keying.
func (p *Planner) PlanDraft(ctx context.Context, key string, d *Draft, fromKey string, fromTask *sharding.Task) (*Plan, *SimResult, error) {
	if !p.faults.Empty() {
		return p.PlanKeyed(ctx, key, d.task, d.opts)
	}
	if fromTask == nil || fromKey == "" {
		return p.cache.PlanAndSimulateKeyedFillContext(ctx, key, d.task, d.opts, d.Plan)
	}
	return p.replanKeyed(ctx, key, d.task, d.opts, d, fromKey, fromTask)
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
