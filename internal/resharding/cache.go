package resharding

import (
	"cmp"
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"alpacomm/internal/mesh"
	"alpacomm/internal/percpu"
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
//
// A hit takes a per-processor read lock (percpu.RWMutex) and stamps the
// entry from the recency clock; the LRU list catches up with the stamps
// only when it must pick a victim (evict). The clock's line is the one
// that hits on different entries from different cores both write, so what
// a hit costs barely depends on which cores the callers run on.
type PlanCache struct {
	// mu guards entries, lru, every entry's pos, misses and evictions: a
	// hit read-locks it, anything that changes the key set write-locks it.
	mu        percpu.RWMutex
	entries   map[string]*cacheEntry
	lru       *list.List // ordered by cacheEntry.pos, highest at front; nil when unbounded
	capacity  int        // 0 = unbounded
	misses    int
	evictions int
	// noTrace makes leaders simulate without the Events timeline or the
	// Utilization report; see SetSimulateNoTrace.
	noTrace atomic.Bool

	// clock issues recency stamps: every fill and every hit on a bounded
	// cache takes the next tick. It and hits are the words every hit
	// writes, so they share a line apart from the words hits read.
	_     [percpu.Pad]byte
	clock atomic.Uint64
	hits  atomic.Int64
	_     [percpu.Pad]byte
}

type cacheEntry struct {
	key string
	// elem is the entry's LRU list node; nil when the cache is unbounded
	// or the entry has been evicted.
	elem *list.Element
	// pos is the stamp the entry's place in the LRU list stands for (the
	// list is sorted by it); used is its latest stamp. A hit moves only
	// used, so used > pos means the entry was used since it was placed.
	pos  uint64
	used atomic.Uint64
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

// touch stamps a use of e; only a bounded cache keeps recency.
func (c *PlanCache) touch(e *cacheEntry) {
	if c.lru != nil {
		e.used.Store(c.clock.Add(1))
	}
}

// add inserts a new entry as the most recently used and evicts down to
// the bound. Callers write-lock c.mu.
func (c *PlanCache) add(e *cacheEntry) {
	c.entries[e.key] = e
	if c.lru == nil {
		return
	}
	e.pos = c.clock.Add(1)
	e.used.Store(e.pos)
	e.elem = c.lru.PushFront(e)
	c.evict()
}

// evict drops least-recently-used entries until the cache is within its
// bound. The list is sorted by the stamp each entry was placed under, so
// its back is the exact LRU entry unless it was used since it was placed:
// such an entry first moves to where its latest use ranks it. Callers
// write-lock c.mu.
func (c *PlanCache) evict() {
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		v := back.Value.(*cacheEntry)
		if u := v.used.Load(); u > v.pos {
			v.pos = u
			for at := c.lru.Front(); at != back; at = at.Next() {
				if at.Value.(*cacheEntry).pos < u {
					c.lru.MoveBefore(back, at)
					break
				}
			}
			continue
		}
		c.lru.Remove(back)
		v.elem = nil
		delete(c.entries, v.key)
		c.evictions++
	}
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
	i := c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock(i)
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
	i := c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock(i)
	if !ok || !e.ready.Load() || e.err != nil {
		return nil, nil, nil, false
	}
	c.hits.Add(1)
	c.touch(e)
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
	i := c.mu.RLock()
	defer c.mu.RUnlock(i)
	return CacheStats{
		Hits: int(c.hits.Load()), Misses: c.misses, Entries: len(c.entries),
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
// NewPlanContext — e.g. finishing a caller's Draft (Planner.PlanDraft).
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
	i := c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock(i)
	if !ok {
		c.mu.Lock()
		if e, ok = c.entries[key]; !ok {
			e = &cacheEntry{key: key, done: make(chan struct{})}
			c.misses++
			c.add(e)
		}
		c.mu.Unlock()
	}
	if ok {
		c.hits.Add(1)
		c.touch(e)
	}
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
	c.add(e)
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
		// The list holds every entry, in the order they were placed; their
		// latest stamps rank them.
		byUse := make([]*cacheEntry, 0, c.lru.Len())
		for el := c.lru.Front(); el != nil; el = el.Next() {
			byUse = append(byUse, el.Value.(*cacheEntry))
		}
		slices.SortFunc(byUse, func(a, b *cacheEntry) int { return cmp.Compare(b.used.Load(), a.used.Load()) })
		for _, e := range byUse {
			appendEntry(e)
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
		first, _ := topo.HostDevices(h)
		firstDev = append(firstDev, first)
	}

	var arr [512]byte
	b := append(arr[:0], "t=("...)
	b = appendInts(b, task.Global, ',')
	b = append(b, ")/"...)
	b = append(b, task.DType.String()...)
	b = append(b, ';')
	b = appendMesh(b, "s=", topo, task.Src, hosts, firstDev)
	b = appendMesh(b, "d=", topo, task.Dst, hosts, firstDev)
	// Hosts, and host pairs, mostly share their values: a value is rendered
	// once and an equal one copies its bytes (see renderedSpans).
	var seen renderedSpans
	for _, h := range hosts {
		b = append(b, 'h')
		b = strconv.AppendInt(b, int64(h-base), 10)
		b = append(b, '[')
		_, n := topo.HostDevices(h)
		v := [5]uint64{uint64(n), math.Float64bits(topo.IntraBandwidth(h)), math.Float64bits(topo.IntraLatency(h)),
			math.Float64bits(topo.NICBandwidth(h)), uint64(topo.NICCount(h))}
		if b = seen.appendCopy(b, v); !seen.found {
			b = seen.add(mesh.AppendHostFingerprint(b, topo, h), v)
		}
		b = append(b, "];"...)
	}
	seen = renderedSpans{}
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
			bw, lat := topo.InterBandwidth(a, r), topo.InterLatency(a, r)
			v := [5]uint64{math.Float64bits(bw), math.Float64bits(lat)}
			if b = seen.appendCopy(b, v); !seen.found {
				b = strconv.AppendFloat(b, bw, 'g', -1, 64)
				b = append(b, '/')
				b = seen.add(strconv.AppendFloat(b, lat, 'g', -1, 64), v)
			}
			b = append(b, ';')
		}
	}
	b = append(b, "o="...)
	for i, v := range [...]int64{int64(opts.Strategy), int64(opts.Scheduler), int64(opts.Chunks),
		int64(opts.DFSNodes), int64(opts.Trials), opts.Seed} {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return string(b)
}

// renderedSpans remembers up to eight values CacheKey rendered, by their
// bits (equal bits render equal bytes), and where in the key their bytes
// are; later values are rendered every time, which bounds the scan.
type renderedSpans struct {
	n     int
	vals  [8][5]uint64
	spans [8][2]int // [start, end) in the key
	start int       // where the value being rendered starts
	found bool      // whether the last appendCopy found its value
}

// appendCopy appends the bytes of a value equal to v rendered earlier, if
// there is one (found reports it), and otherwise marks where v's rendering,
// which the caller appends and hands to add, starts.
func (r *renderedSpans) appendCopy(b []byte, v [5]uint64) []byte {
	for i := 0; i < r.n; i++ {
		if r.vals[i] == v {
			r.found = true
			return append(b, b[r.spans[i][0]:r.spans[i][1]]...)
		}
	}
	r.found, r.start = false, len(b)
	return b
}

// add records that b ends with v's rendering.
func (r *renderedSpans) add(b []byte, v [5]uint64) []byte {
	if r.n < len(r.vals) {
		r.vals[r.n], r.spans[r.n] = v, [2]int{r.start, len(b)}
		r.n++
	}
	return b
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
