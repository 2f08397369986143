package resharding

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"alpacomm/internal/mesh"
	"alpacomm/internal/sharding"
)

// PlanCache memoizes planned-and-simulated reshardings keyed by
// (source placement, destination placement, topology, options). The key is
// canonical under host translation: two stage boundaries whose meshes have
// the same shape, the same specs and the same layout relative to
// interchangeable hosts share one entry, even when they sit on different
// physical hosts. A production planner sees millions of structurally
// identical boundaries — one per stage pair per pipeline — and this cache
// collapses them to one planning pass each.
//
// Timing fields of the cached SimResult (Makespan, EffectiveGbps, NumOps)
// are exact for every task that maps to the key: the network model is
// translation-invariant across interchangeable hosts. The cached Plan and
// the trace fields (Events, Utilization) belong to the first task planned
// under the key, so their device and host identifiers may be translated
// relative to a later caller's meshes; use NewPlan directly when a plan
// must be executed on specific devices.
//
// A cache created by NewLRUPlanCache is bounded: once it holds Capacity
// entries, each new key evicts the least-recently-used entry, so memory
// stays flat no matter how many distinct reshardings pass through it. A
// cache created by NewPlanCache never evicts.
//
// Entries whose planning or simulation failed are not retained: the error
// is returned to every lookup that coalesced onto the failing computation,
// then the key is forgotten, so a transient failure is never replayed to
// later callers.
//
// A PlanCache is safe for concurrent use; concurrent requests for the same
// key plan once and share the entry — including requests that race with
// the entry's eviction, which complete against the shared computation
// while new arrivals plan afresh. Coalesced waits are cancellable: a
// waiter whose context ends before the leader finishes returns ctx.Err()
// immediately and leaves the entry intact for every other waiter.
type PlanCache struct {
	mu        sync.Mutex
	entries   map[string]*cacheEntry
	lru       *list.List // most recent at front; nil when unbounded
	capacity  int        // 0 = unbounded
	hits      int
	misses    int
	evictions int
	// noTrace makes leaders simulate without the Events timeline or the
	// Utilization report; see SetSimulateNoTrace.
	noTrace atomic.Bool
}

type cacheEntry struct {
	key string
	// elem is the entry's LRU list node; nil when the cache is unbounded
	// or the entry has been evicted.
	elem *list.Element
	// done is closed by the leader (the goroutine that created the entry)
	// once plan/sim/err are set; waiters select on it against their own
	// context, so a disconnected waiter never blocks on a computation it
	// no longer wants — and its departure is invisible to other waiters.
	done chan struct{}
	// ready is set just before done closes; a true load makes reading
	// plan/sim/err safe without touching the channel.
	ready atomic.Bool
	plan  *Plan
	sim   *SimResult
	err   error
	// attach is an opaque sidecar a caller associated with the completed
	// entry via PlanCache.Attach — e.g. the plan server's pre-serialized
	// wire bodies, built once at fill time and handed back byte-for-byte
	// on every later hit. It shares the entry's lifetime: evicting or
	// forgetting the entry drops the attachment with it.
	attach atomic.Value
}

// NewPlanCache returns an empty unbounded cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: map[string]*cacheEntry{}}
}

// NewLRUPlanCache returns an empty cache bounded to capacity entries with
// least-recently-used eviction. capacity <= 0 means unbounded.
func NewLRUPlanCache(capacity int) *PlanCache {
	c := NewPlanCache()
	if capacity > 0 {
		c.capacity = capacity
		c.lru = list.New()
	}
	return c
}

// Capacity returns the eviction bound, 0 when unbounded.
func (c *PlanCache) Capacity() int { return c.capacity }

// SetSimulateNoTrace switches the cache between full-trace and trace-free
// simulation of new entries. When on, a leader fills its entry with
// Plan.SimulateNoTrace: the timing fields (Makespan, EffectiveGbps,
// NumOps) are identical to Simulate's, but Events and Utilization are nil.
// Serving layers flip this on — responses carry timings, never traces, and
// the Events rendering dominates a cache fill's allocations. Entries
// already resident keep whatever simulation they were filled with.
func (c *PlanCache) SetSimulateNoTrace(on bool) { c.noTrace.Store(on) }

// SimulatesNoTrace reports whether new entries are simulated trace-free.
func (c *PlanCache) SimulatesNoTrace() bool { return c.noTrace.Load() }

// Attach associates an opaque sidecar value with the completed entry for
// key — e.g. a pre-serialized response body a server wants to reuse on
// later hits. It reports false (and stores nothing) when the key is
// absent, still being planned, or errored; the caller simply rebuilds the
// sidecar on a later hit. Attach never blocks on in-flight planning.
func (c *PlanCache) Attach(key string, v interface{}) bool {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok || !e.ready.Load() || e.err != nil {
		return false
	}
	// atomic.Value requires one consistent concrete type across stores;
	// the box keeps Attach agnostic to what callers attach.
	e.attach.Store(attachBox{v})
	return true
}

// attachBox wraps attachments of arbitrary dynamic type for atomic.Value.
type attachBox struct{ v interface{} }

// LookupKeyedAttachment is LookupKeyed plus the entry's attachment (nil
// when none was attached). Like LookupKeyed it never blocks on an
// in-flight computation.
func (c *PlanCache) LookupKeyedAttachment(key string) (*Plan, *SimResult, interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.ready.Load() || e.err != nil {
		return nil, nil, nil, false
	}
	c.hits++
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	var att interface{}
	if box, ok := e.attach.Load().(attachBox); ok {
		att = box.v
	}
	return e.plan, e.sim, att, true
}

// CacheStats reports cache effectiveness.
type CacheStats struct {
	// Hits is the number of lookups served from an existing entry.
	Hits int
	// Misses is the number of lookups that had to plan and simulate.
	Misses int
	// Entries is the number of keys currently resident.
	Entries int
	// Evictions is the number of entries dropped to respect Capacity.
	Evictions int
	// Capacity is the eviction bound, 0 when unbounded.
	Capacity int
}

// Stats returns a snapshot of the counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Entries: len(c.entries),
		Evictions: c.evictions, Capacity: c.capacity,
	}
}

// SimulateContext returns the simulated execution of the task under the
// options, planning it only if no structurally identical resharding has
// been planned before; see PlanAndSimulateContext for cancellation.
func (c *PlanCache) SimulateContext(ctx context.Context, task *sharding.Task, opts Options) (*SimResult, error) {
	_, sim, err := c.PlanAndSimulateContext(ctx, task, opts)
	return sim, err
}

// PlanAndSimulateContext returns the cached plan and simulation for the
// task, computing and storing them on first use (see the type comment for
// what the cached plan means on a translated hit). The first caller of a key
// (the leader) plans under its own context — a cancelled leader records
// ctx.Err(), which the errored-entry path then forgets like any transient
// failure. Later callers coalesce onto the in-flight computation and wait
// cancellably: a waiter whose context ends returns ctx.Err() at once,
// without disturbing the entry the leader will complete for everyone else.
func (c *PlanCache) PlanAndSimulateContext(ctx context.Context, task *sharding.Task, opts Options) (*Plan, *SimResult, error) {
	opts = opts.WithDefaults()
	return c.PlanAndSimulateKeyedContext(ctx, CacheKey(task, opts), task, opts)
}

// PlanAndSimulateKeyedContext is PlanAndSimulateContext for callers that
// already hold the problem's canonical key — e.g. a server that computed
// it once for request coalescing. opts must be defaulted
// (Options.WithDefaults) and key must equal CacheKey(task, opts);
// rendering the key is the cache-hit fast path's dominant cost, so this
// avoids paying it twice.
func (c *PlanCache) PlanAndSimulateKeyedContext(ctx context.Context, key string, task *sharding.Task, opts Options) (*Plan, *SimResult, error) {
	return c.PlanAndSimulateKeyedFillContext(ctx, key, task, opts, nil)
}

// PlanFill computes a cache entry's plan in place of the default cold
// NewPlanContext — e.g. a replan that reuses another overlay's incumbent.
// The cache simulates the plan itself, in its configured trace mode. A fill
// must produce a plan for the exact (task, opts) it was keyed under.
type PlanFill func(ctx context.Context) (*Plan, error)

// PlanAndSimulateKeyedFillContext is PlanAndSimulateKeyedContext with a
// caller-supplied fill for the leader path: when the key misses, fill
// computes the plan instead of NewPlanContext. Hits, coalescing, errored-
// entry forgetting and cancellation behave identically — a fill only ever
// replaces the cold computation, never the caching discipline. A nil fill
// is exactly PlanAndSimulateKeyedContext.
func (c *PlanCache) PlanAndSimulateKeyedFillContext(ctx context.Context, key string, task *sharding.Task, opts Options, fill PlanFill) (*Plan, *SimResult, error) {
	for {
		plan, sim, err := c.planAndSimulateOnce(ctx, key, task, opts, fill)
		// A leader that was cancelled reports its own ctx error to every
		// waiter — but a waiter whose context is still live holds a valid
		// request that was never attempted, and the errored entry has
		// already been forgotten, so the waiter retries and becomes (or
		// joins) a fresh leader instead of inheriting a cancellation that
		// was never its own.
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() == nil {
			continue
		}
		return plan, sim, err
	}
}

// planAndSimulateOnce runs one lookup-or-lead round; see
// PlanAndSimulateKeyedContext for the retry wrapper.
func (c *PlanCache) planAndSimulateOnce(ctx context.Context, key string, task *sharding.Task, opts Options, fill PlanFill) (*Plan, *SimResult, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
	} else {
		e = &cacheEntry{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.misses++
		if c.lru != nil {
			e.elem = c.lru.PushFront(e)
			for c.lru.Len() > c.capacity {
				victim := c.lru.Remove(c.lru.Back()).(*cacheEntry)
				victim.elem = nil
				delete(c.entries, victim.key)
				c.evictions++
			}
		}
	}
	c.mu.Unlock()
	if !ok {
		// Leader: compute under this caller's context. A panic in planning
		// must not strand the entry's waiters or leave it looking like a
		// successful nil result, so the unwind path records an error (the
		// errored-entry path then forgets the key) and still closes done
		// while the panic propagates to the caller that hit it.
		finished := false
		defer func() {
			if !finished {
				e.plan, e.sim = nil, nil
				e.err = fmt.Errorf("resharding: planning panicked")
				e.ready.Store(true)
				close(e.done)
				c.forget(e)
			}
		}()
		if fill != nil {
			e.plan, e.err = fill(ctx)
		} else {
			e.plan, e.err = NewPlanContext(ctx, task, opts)
		}
		if e.err == nil {
			if c.noTrace.Load() {
				e.sim, e.err = e.plan.SimulateNoTrace()
			} else {
				e.sim, e.err = e.plan.Simulate()
			}
		}
		finished = true
		e.ready.Store(true)
		close(e.done)
		if e.err != nil {
			c.forget(e)
		}
		return e.plan, e.sim, e.err
	}
	if !e.ready.Load() {
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return e.plan, e.sim, e.err
}

// Install inserts an externally computed (plan, simulation) pair as a
// completed entry for key, as if a leader had just filled it. It is the
// import half of the cluster tier's cache transfer: a node that fetched a
// verified plan from a peer — or replayed one from a snapshot — installs
// it so later lookups hit locally. The insert counts as neither a hit nor
// a miss (no lookup happened), respects the LRU bound like any fill, and
// reports false without storing anything when the key is already resident
// (completed or in flight — an in-flight leader will finish its own
// computation and must keep its waiters).
func (c *PlanCache) Install(key string, plan *Plan, sim *SimResult) bool {
	if plan == nil || sim == nil {
		return false
	}
	e := &cacheEntry{key: key, done: make(chan struct{}), plan: plan, sim: sim}
	e.ready.Store(true)
	close(e.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	c.entries[key] = e
	if c.lru != nil {
		e.elem = c.lru.PushFront(e)
		for c.lru.Len() > c.capacity {
			victim := c.lru.Remove(c.lru.Back()).(*cacheEntry)
			victim.elem = nil
			delete(c.entries, victim.key)
			c.evictions++
		}
	}
	return true
}

// ExportedEntry is one completed cache entry surfaced by Export: the key,
// the plan/simulation pair, and whatever sidecar was attached (nil when
// none).
type ExportedEntry struct {
	Key    string
	Plan   *Plan
	Sim    *SimResult
	Attach interface{}
}

// Export snapshots every completed, non-errored entry. On a bounded cache
// the slice is ordered most- to least-recently used, so a consumer that
// persists a prefix keeps the hottest keys; an unbounded cache exports in
// key order. The snapshot is taken under the cache lock but shares the
// entries' plans and simulations — callers must treat them as immutable
// (they already are for every cache user). Recency is not touched: an
// export is an observation, not a use.
func (c *PlanCache) Export() []ExportedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ExportedEntry, 0, len(c.entries))
	appendEntry := func(e *cacheEntry) {
		if !e.ready.Load() || e.err != nil {
			return
		}
		var att interface{}
		if box, ok := e.attach.Load().(attachBox); ok {
			att = box.v
		}
		out = append(out, ExportedEntry{Key: e.key, Plan: e.plan, Sim: e.sim, Attach: att})
	}
	if c.lru != nil {
		for el := c.lru.Front(); el != nil; el = el.Next() {
			appendEntry(el.Value.(*cacheEntry))
		}
		return out
	}
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		appendEntry(c.entries[k])
	}
	return out
}

// LookupKeyed returns the completed entry for a canonical key without
// planning anything and without ever blocking on an in-flight
// computation: entries still being planned (or whose planning failed)
// report a miss without counting one. Servers use this to serve hot
// cached lookups ahead of admission control, so a hit never queues behind
// slow cold planning work.
func (c *PlanCache) LookupKeyed(key string) (*Plan, *SimResult, bool) {
	plan, sim, _, ok := c.LookupKeyedAttachment(key)
	return plan, sim, ok
}

// forget drops an errored entry so the failure is not replayed forever;
// only the exact entry is removed, never a fresh one racing in under the
// same key.
func (c *PlanCache) forget(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
	}
}

// CacheKey renders the canonical identity of a resharding problem: global
// shape and dtype, both mesh layouts with devices rebased to the lowest
// involved host, both specs, the per-host hardware fingerprints and
// pairwise fabric properties of the involved hosts, and every option that
// influences planning or simulation.
//
// The key is computed on every lookup — the cache-hit fast path — and is the
// identity ring routing, snapshots and peer fills agree on, so it is
// rendered with strconv appends into one buffer, byte for byte what the fmt
// verbs it replaced (%v, %d, %g) produced; referenceCacheKey in the tests is
// that renderer.
func CacheKey(task *sharding.Task, opts Options) string {
	topo := task.Src.Mesh.Topo
	var hostArr, firstArr [16]int
	hosts := involvedHosts(hostArr[:0], topo, task)
	base := hosts[0]
	// firstDev[i] is the first device index of hosts[i].
	firstDev := firstArr[:0]
	for _, h := range hosts {
		firstDev = append(firstDev, topo.DevicesOnHost(h)[0])
	}

	var arr [512]byte
	b := append(arr[:0], "t=("...)
	b = appendInts(b, task.Global, ',')
	b = append(b, ")/"...)
	b = append(b, task.DType.String()...)
	b = append(b, ';')
	b = appendMesh(b, "s=", topo, task.Src, hosts, firstDev)
	b = appendMesh(b, "d=", topo, task.Dst, hosts, firstDev)
	for _, h := range hosts {
		b = append(b, 'h')
		b = strconv.AppendInt(b, int64(h-base), 10)
		b = append(b, '[')
		b = mesh.AppendHostFingerprint(b, topo, h)
		b = append(b, "];"...)
	}
	for _, a := range hosts {
		for _, r := range hosts {
			if a == r {
				continue
			}
			b = append(b, 'x')
			b = strconv.AppendInt(b, int64(a-base), 10)
			b = append(b, '-')
			b = strconv.AppendInt(b, int64(r-base), 10)
			b = append(b, ':')
			b = strconv.AppendFloat(b, topo.InterBandwidth(a, r), 'g', -1, 64)
			b = append(b, '/')
			b = strconv.AppendFloat(b, topo.InterLatency(a, r), 'g', -1, 64)
			b = append(b, ';')
		}
	}
	b = append(b, "o="...)
	for i, v := range [...]int64{int64(opts.Strategy), int64(opts.Scheduler), int64(opts.Chunks),
		int64(opts.DFSBudget), int64(opts.DFSNodes), int64(opts.Trials), opts.Seed} {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return string(b)
}

// appendInts appends the integers in decimal, sep between them.
func appendInts(b []byte, xs []int, sep byte) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, sep)
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return b
}

// appendMesh renders one placement: mesh shape, spec, and each device as
// (host - base, offset within host), where base is hosts[0].
func appendMesh(b []byte, tag string, topo mesh.Topology, p *sharding.Placement, hosts, firstDev []int) []byte {
	b = append(b, tag...)
	b = append(b, '[')
	b = appendInts(b, p.Mesh.Shape, ' ')
	b = append(b, "]/"...)
	b = p.Spec.AppendTo(b)
	b = append(b, '@')
	at := 0 // consecutive devices mostly share a host
	for _, d := range p.Mesh.Devices {
		if h := topo.HostOf(d); hosts[at] != h {
			at, _ = slices.BinarySearch(hosts, h)
		}
		b = strconv.AppendInt(b, int64(hosts[at]-hosts[0]), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(d-firstDev[at]), 10)
		b = append(b, ',')
	}
	return append(b, ';')
}

// involvedHosts appends the sorted union of hosts the two meshes span. A
// mesh's devices arrive in host runs, so skipping repeats of the host just
// appended leaves about one entry per host and mesh for the sort to merge.
func involvedHosts(hosts []int, topo mesh.Topology, task *sharding.Task) []int {
	for _, m := range [...]*mesh.Mesh{task.Src.Mesh, task.Dst.Mesh} {
		for _, d := range m.Devices {
			if h := topo.HostOf(d); len(hosts) == 0 || hosts[len(hosts)-1] != h {
				hosts = append(hosts, h)
			}
		}
	}
	slices.Sort(hosts)
	return slices.Compact(hosts)
}
