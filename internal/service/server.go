// Package service is the plan-serving subsystem: an HTTP+JSON API that
// turns the resharding planner into a multi-tenant service.
//
// The paper invokes the planner once per training job; a production
// deployment serves resharding plans to many concurrent jobs, most of
// which ask structurally identical questions. The server therefore layers
// three mechanisms in front of the planner:
//
//   - Request coalescing: duplicate in-flight requests (same canonical
//     resharding.CacheKey) share one computation — N clients asking for
//     the same boundary at once cost one planning pass and zero extra
//     worker slots.
//
//   - A bounded LRU plan cache (resharding.NewLRUPlanCache): completed
//     plans are retained up to a fixed capacity with least-recently-used
//     eviction, so memory stays flat under millions of distinct requests
//     while the hot working set stays resident.
//
//   - Admission control with backpressure: searches and grid searches run
//     on bounded worker pools with bounded wait queues. Overflow is
//     rejected immediately with 429 and a Retry-After header. Plan and
//     autotune have separate pools, so a burst of grid searches (one
//     autotune = 20 planning passes) cannot starve cheap cached lookups.
//     Everything else a miss does — decoding, parsing, the draft and the
//     fill of a plan the draft proves, all microseconds — runs under a
//     bounded intake gate, and every client-supplied effort parameter is
//     capped, so no stage of a request runs with unbounded concurrency or
//     unbounded cost. With the SLO controller on, the plan pool's
//     occupancy is the load it reads, its verdict applies to misses that
//     must search, and every /v2/plan 429 — controller, plan pool or
//     intake gate — is reported as a shed.
//
// Endpoints:
//
//	POST /v2/plan       — plan and simulate one resharding (PlanRequest).
//	POST /v2/autotune   — strategy x scheduler grid search (AutotuneRequest).
//	POST /v2/plan:batch — plan every stage boundary of a pipeline job in
//	                      one request (BatchPlanRequest); congruent
//	                      boundaries cost one planner computation total.
//	GET  /v2/stats      — cache, coalescing and admission counters.
//
// Every handler is an adapter over one resharding.Planner session, so the
// caches, coalescing and cancellation behavior are identical across
// endpoints. Every non-2xx response carries the structured machine-readable
// error envelope (see V2Error), plan, autotune, batch and error responses
// are also available in the binary wire format (see wire.go), and the
// X-Timeout-Ms header propagates the client's deadline. A client that disconnects — or whose propagated
// deadline fires — while its request is queued or mid-search aborts the
// work instead of riding it out.
//
// Topologies are named, not transmitted: requests reference presets of a
// mesh.Registry ("p3", "dgx-a100", "mixed") plus host count and fabric
// oversubscription. Planning is deterministic — every DFS budget is a node
// count — so identical requests return identical plans regardless of
// server load, machine speed, or which replica answered.
package service

import (
	"context"
	"errors"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alpacomm/internal/mesh"
	"alpacomm/internal/percpu"
	"alpacomm/internal/resharding"
	"alpacomm/internal/schedule"
	"alpacomm/internal/sharding"
)

// DefaultCacheCapacity bounds the plan cache when Config.Cache is nil.
const DefaultCacheCapacity = 4096

// Config configures a Server. The zero value is usable: default registry,
// a bounded LRU cache of DefaultCacheCapacity entries, GOMAXPROCS plan
// workers, and half as many autotune workers.
type Config struct {
	// Registry resolves topology names; nil means mesh.DefaultRegistry().
	Registry *mesh.Registry
	// Cache serves and stores plans; nil means a new LRU cache of
	// DefaultCacheCapacity entries. Pass resharding.NewPlanCache() for an
	// unbounded cache, or share one cache between servers.
	Cache *resharding.PlanCache
	// AutotuneCache memoizes the per-candidate plans of /v2/autotune grid
	// searches. It is separate from Cache so an autotune burst (~20
	// entries per request, keyed with derived seeds that /v2/plan lookups
	// never match) cannot evict the hot plan working set. Nil means a new
	// cache with Cache's capacity.
	AutotuneCache *resharding.PlanCache
	// PlanWorkers bounds concurrent searches: misses, from /v2/plan and
	// /v2/plan:batch alike, whose draft the closed-form candidates cannot
	// prove; 0 = GOMAXPROCS.
	PlanWorkers int
	// PlanQueue is the search pool's wait-queue depth beyond the workers;
	// 0 = 4x PlanWorkers. Overflow is rejected with 429.
	PlanQueue int
	// AutotuneWorkers bounds concurrent /v2/autotune grid searches;
	// 0 = max(1, GOMAXPROCS/2). Each search fans its candidates out over
	// its own internal pool, so one slot already uses multiple cores.
	AutotuneWorkers int
	// AutotuneQueue is the /v2/autotune wait-queue depth; 0 = 2x workers.
	AutotuneQueue int
	// RetryAfter is the backoff hint attached to 429 responses;
	// 0 = 1 second.
	RetryAfter time.Duration
	// SLO enables the SLO-aware admission controller on /v2/plan: the
	// server observes served latencies and the search pool's occupancy,
	// and degrades misses that must search (to search-free plans) when the
	// pool is full or the p99 budget is at risk, then sheds them
	// (structured overloaded) past the budget. Nil — or a zero P99Budget —
	// leaves only the fixed worker pools.
	SLO *SLOConfig
}

// Server implements the plan-serving HTTP API. Create with New; it is an
// http.Handler ready to mount on any mux or listener.
type Server struct {
	reg *mesh.Registry
	// planner is the session every endpoint plans through: it owns the
	// plan cache, the autotune candidate cache and the context plumbing.
	planner       *resharding.Planner
	cache         *resharding.PlanCache
	autotuneCache *resharding.PlanCache
	topos         topologyCache
	// reqMemo memoizes request parses — fault-free ones by wire fields, and
	// for /v2/plan every accepted body, faulted or not, by its bytes — so a
	// repeated request does no decoding, task decomposition or cache-key
	// rendering: the dominant per-request cost once the plan itself is a
	// pre-serialized cache hit.
	reqMemo parseMemo
	flight  flightGroup
	// intake bounds the work a miss does outside the worker pools: for
	// /v2/plan, phase one of handlePlanV2 (decode, parse, draft, and the
	// fill of a proven draft); elsewhere topology construction, task
	// decomposition and cache-key rendering. Without it that work would
	// run with one goroutine per connection, outside any backpressure.
	intake *admission
	// plan bounds searches: the misses a draft cannot prove.
	plan     *admission
	autotune *admission
	// slo, when set, is the SLO-aware admission controller: /v2/plan asks
	// it once per request, and its verdict decides how a miss that must
	// search is served; nil = fixed pools only.
	slo        *SLOController
	planC      stripedCounters
	autotuneC  stripedCounters
	batchC     stripedCounters
	retryAfter time.Duration
	mux        *http.ServeMux
	// router, when set, makes this server one node of a cluster tier: see
	// computePlan for what is fetched from a peer. Nil = standalone.
	router Router
	// routedProxyC / proxyFallbackC count miss routing outcomes; see
	// ClusterNodeStats (RoutedLocal is every other miss led here).
	routedProxyC   atomic.Int64
	proxyFallbackC atomic.Int64
	// exitC counts the plans computed here by how their ensemble ended.
	exitC exitCounters
}

// New builds a Server from the config (see Config for defaults).
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = mesh.DefaultRegistry()
	}
	if cfg.Cache == nil {
		cfg.Cache = resharding.NewLRUPlanCache(DefaultCacheCapacity)
	}
	if cfg.AutotuneCache == nil {
		cfg.AutotuneCache = resharding.NewLRUPlanCache(cfg.Cache.Capacity())
	}
	cfg.PlanWorkers, cfg.PlanQueue = planPoolSize(cfg.PlanWorkers, cfg.PlanQueue)
	if cfg.AutotuneWorkers <= 0 {
		cfg.AutotuneWorkers = runtime.GOMAXPROCS(0) / 2
		if cfg.AutotuneWorkers < 1 {
			cfg.AutotuneWorkers = 1
		}
	}
	if cfg.AutotuneQueue <= 0 {
		cfg.AutotuneQueue = 2 * cfg.AutotuneWorkers
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	// Serving returns timings, never event traces, and rendering the
	// per-op timeline dominates a cache fill's allocations — so the
	// server's caches simulate trace-free (timing fields are identical, see
	// resharding.PlanCache.SetSimulateNoTrace). A cache shared with an
	// in-process planner that needs traces should not be passed here.
	cfg.Cache.SetSimulateNoTrace(true)
	cfg.AutotuneCache.SetSimulateNoTrace(true)
	// Floor the intake gate: what it admits costs microseconds, so a
	// small-core machine must not reject a burst of duplicate requests that
	// the coalescing behind the gate would collapse to one computation
	// anyway.
	intakeWorkers := 4 * runtime.GOMAXPROCS(0)
	if intakeWorkers < 16 {
		intakeWorkers = 16
	}
	s := &Server{
		reg: cfg.Registry,
		planner: resharding.NewPlanner(
			resharding.WithCache(cfg.Cache),
			resharding.WithAutotuneCache(cfg.AutotuneCache),
		),
		cache:         cfg.Cache,
		autotuneCache: cfg.AutotuneCache,
		reqMemo:       newParseMemo(),
		intake:        newAdmission(intakeWorkers, 4*intakeWorkers),
		plan:          newAdmission(cfg.PlanWorkers, cfg.PlanQueue),
		autotune:      newAdmission(cfg.AutotuneWorkers, cfg.AutotuneQueue),
		retryAfter:    cfg.RetryAfter,
		mux:           http.NewServeMux(),
	}
	if cfg.SLO != nil && cfg.SLO.P99Budget > 0 {
		s.slo = newSLOController(*cfg.SLO, cap(s.plan.queue), defaultSLOTiming, nil)
	}
	s.mux.HandleFunc("/v2/plan", s.handlePlanV2)
	s.mux.HandleFunc("/v2/autotune", s.handleAutotuneV2)
	s.mux.HandleFunc("/v2/plan:batch", s.handlePlanBatch)
	s.mux.HandleFunc("/v2/stats", s.handleStats)
	return s
}

// ServeHTTP dispatches to the API endpoints. A /v2/plan request whose path
// needs no cleaning or unescaping goes straight to the handler the mux
// would pick, skipping the read lock the mux takes on its route table: a
// word that requests on every core write.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v2/plan" && r.URL.RawPath == "" {
		s.handlePlanV2(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Cache exposes the server's plan cache (e.g. to pre-warm it or to share
// it with an in-process planner).
func (s *Server) Cache() *resharding.PlanCache { return s.cache }

// AutotuneCache exposes the separate cache backing /v2/autotune grid
// searches.
func (s *Server) AutotuneCache() *resharding.PlanCache { return s.autotuneCache }

// planPoolSize resolves Config's plan-pool fields, 0 meaning the default:
// GOMAXPROCS workers and a queue four times as deep.
func planPoolSize(workers, queue int) (int, int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 4 * workers
	}
	return workers, queue
}

// errOverloaded marks an admission rejection; mapped to 429.
var errOverloaded = errors.New("service: worker pool and queue full")

// errSLOShed marks a request shed by the SLO controller; mapped to 429
// like errOverloaded, but distinguishable in logs and tests.
var errSLOShed = errors.New("service: shedding load to protect the p99 SLO budget")

// AdmissionHeader reports the SLO controller's decision on /v2/plan
// responses it affected: "degraded" on a response planned at degraded
// quality, "shed" on every 429 while the controller is on — its own, the
// plan pool's or the intake gate's. Absent on full-quality responses.
const AdmissionHeader = "X-Alpacomm-Admission"

// admission is one endpoint's worker pool: a caller first takes a queue
// token (failing fast when the queue is full — the backpressure signal)
// and then waits for one of the worker slots.
type admission struct {
	slots chan struct{}
	queue chan struct{}
}

func newAdmission(workers, queueDepth int) *admission {
	return &admission{
		slots: make(chan struct{}, workers),
		queue: make(chan struct{}, workers+queueDepth),
	}
}

func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.queue <- struct{}{}:
	default:
		return errOverloaded
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-a.queue
		return ctx.Err()
	}
}

func (a *admission) release() {
	<-a.slots
	<-a.queue
}

// endpointCounters aggregate one endpoint's outcomes.
type endpointCounters struct {
	requests  atomic.Int64
	ok        atomic.Int64
	errors    atomic.Int64
	rejected  atomic.Int64
	coalesced atomic.Int64
	inFlight  atomic.Int64
	// planC's only; see EndpointStats.
	missesProven   atomic.Int64
	missesSearched atomic.Int64
	decoded        atomic.Int64
}

// stripedCounters is one endpoint's counters in a copy per processor
// (package percpu), summed by snapshot. A request counts everything in
// the copy it picked, so its inFlight up and down land in one copy and no
// sum of copies reads below zero.
type stripedCounters struct {
	_       [percpu.Pad]byte
	stripes [percpu.Slots]struct {
		endpointCounters
		_ [percpu.Pad]byte
	}
}

// pick returns the copy one request counts in.
func (sc *stripedCounters) pick() *endpointCounters {
	return &sc.stripes[percpu.Index()].endpointCounters
}

func (sc *stripedCounters) snapshot() EndpointStats {
	var st EndpointStats
	for i := range sc.stripes {
		c := &sc.stripes[i]
		st.Requests += c.requests.Load()
		st.OK += c.ok.Load()
		st.Errors += c.errors.Load()
		st.Rejected += c.rejected.Load()
		st.Coalesced += c.coalesced.Load()
		st.InFlight += c.inFlight.Load()
		st.MissesProven += c.missesProven.Load()
		st.MissesSearched += c.missesSearched.Load()
		st.Decoded += c.decoded.Load()
	}
	return st
}

// exitCounters count plans by the candidate their ensemble ended at
// (schedule.Report), on the miss path only: a hit touches none of them.
type exitCounters struct {
	exits                                         [schedule.NumExits]atomic.Int64
	unproven, targetNodes, dfsNodes, greedyTrials atomic.Int64
}

func (c *exitCounters) count(r *schedule.Report) {
	if r.Exit == schedule.ExitNone {
		return
	}
	c.exits[r.Exit].Add(1)
	if !r.Proven {
		c.unproven.Add(1)
	}
	c.targetNodes.Add(int64(r.TargetNodes))
	c.dfsNodes.Add(int64(r.DFSNodes))
	c.greedyTrials.Add(int64(r.GreedyTrials))
}

func (c *exitCounters) snapshot() ExitStats {
	return ExitStats{
		Naive:        c.exits[schedule.ExitNaive].Load(),
		LPT:          c.exits[schedule.ExitLPT].Load(),
		Witness:      c.exits[schedule.ExitWitness].Load(),
		Target:       c.exits[schedule.ExitTarget].Load(),
		Greedy:       c.exits[schedule.ExitGreedy].Load(),
		DFS:          c.exits[schedule.ExitDFS].Load(),
		Unproven:     c.unproven.Load(),
		TargetNodes:  c.targetNodes.Load(),
		DFSNodes:     c.dfsNodes.Load(),
		GreedyTrials: c.greedyTrials.Load(),
	}
}

// maxCachedTopologies bounds the topology memo: the parameters are
// client-controlled, so a parameter sweep must not grow server memory
// without bound. Beyond the cap, topologies are built per request.
const maxCachedTopologies = 256

// topologyCache memoizes built topologies by (name, hosts, oversub):
// topologies are immutable once built, so requests can share them.
type topologyCache struct {
	mu sync.RWMutex
	m  map[string]mesh.Topology
}

//alpacomm:hotpath
func (tc *topologyCache) get(reg *mesh.Registry, ref TopologyRef) (mesh.Topology, error) {
	// Normalize the name the same way Registry.Build does, so case and
	// whitespace variants of one preset share a memo slot instead of
	// letting clients fill the bounded memo with junk aliases. Rendered
	// with strconv appends: this runs on every parse, cache hit or miss.
	name := strings.ToLower(strings.TrimSpace(ref.Name))
	var arr [64]byte
	kb := append(arr[:0], name...)
	kb = append(kb, '|')
	kb = strconv.AppendInt(kb, int64(ref.Hosts), 10)
	kb = append(kb, '|')
	kb = strconv.AppendFloat(kb, ref.Oversubscription, 'g', -1, 64)
	tc.mu.RLock()
	t, ok := tc.m[string(kb)] // a lookup by string(kb) copies nothing
	tc.mu.RUnlock()
	if ok {
		return t, nil
	}
	key := string(kb)
	t, err := reg.Build(ref.Name, mesh.TopologyParams{Hosts: ref.Hosts, Oversubscription: ref.Oversubscription})
	if err != nil {
		return nil, err
	}
	tc.mu.Lock()
	if tc.m == nil {
		tc.m = map[string]mesh.Topology{}
	}
	// Keep the first build if another request raced us in, so every
	// request for one key sees the same instance.
	if prev, ok := tc.m[key]; ok {
		t = prev
	} else if len(tc.m) < maxCachedTopologies {
		tc.m[key] = t
	}
	tc.mu.Unlock()
	return t, nil
}

// maxBodyBytes bounds request bodies; plan requests are tiny. /v2/plan reads
// its body whole before decoding it (see handlePlanV2), so there the bound
// is on the body, not on the part of it the decoder consumes.
const maxBodyBytes = 1 << 20

// computePlan serves one canonical planning problem: a completed cache
// entry is returned before any admission (hits must stay cheap even when
// the plan pool is saturated with slow cold requests); otherwise the
// computation is coalesced with identical in-flight requests under the
// caller's context — a cancelled caller abandons its queue slot, and a
// cancelled waiter detaches without disturbing the flight. The flight leader
// serializes the response bodies once and attaches them to the cache entry,
// so every later hit writes pre-rendered bytes; a plan that cannot be
// serialized fails the request instead of being served any other way.
//
// The leader finishes d, the caller's draft of (task, opts) — or, when d is
// nil, drafts first (resharding.NewDraft: microseconds, no search). A draft
// the closed-form candidates prove — nine misses in ten, every degraded one —
// is finished here whoever owns the key and takes no plan-pool token: a peer
// hop or a queue slot costs several times what is left to do. Only one that
// must search is worth sharing: in cluster mode (router set, wireReq non-nil,
// not forwarded by a peer — see PeerHeader) it is fetched from the key's ring
// owner, whose coalescing makes a tier-wide herd on one cold key cost one
// search; plans are a pure function of the key, so who computes never shows
// in the bytes. The fetch runs outside the plan pool (holding a worker across
// a peer call can deadlock two nodes), and when it fails the same leader
// searches here: availability beats ownership, and the verified-fill gate has
// kept any bad peer plan out of the cache. On a tier node the entry keeps
// wireReq, the request a snapshot persists and Replay plans again.
func (s *Server) computePlan(ctx context.Context, cacheKey string, task *sharding.Task, opts resharding.Options, d *resharding.Draft, wireReq *PlanRequest, forwarded bool) (*encodedPlan, bool, error) {
	if enc, err := s.cachedPlan(cacheKey, opts); enc != nil || err != nil {
		return enc, false, err
	}
	v, err, shared := s.flight.do(ctx, "plan|"+cacheKey, func() (_ interface{}, err error) {
		if d == nil {
			own, err := resharding.NewDraft(task, opts)
			if err != nil {
				return nil, err
			}
			d = &own
		}
		owner, local, proven := "", true, d.Proven()
		if proven {
			s.planC.pick().missesProven.Add(1)
		} else {
			s.planC.pick().missesSearched.Add(1)
			if s.router != nil && wireReq != nil && !forwarded {
				owner, local = s.router.Route(cacheKey)
			}
		}
		var plan *resharding.Plan
		var sim *resharding.SimResult
		if !local {
			s.routedProxyC.Add(1)
			if plan, sim, err = s.router.Fetch(ctx, owner, cacheKey, wireReq, task, opts); err == nil {
				s.cache.Install(cacheKey, plan, sim)
			} else if ctx.Err() != nil {
				return nil, err
			} else {
				s.proxyFallbackC.Add(1)
			}
		}
		if local || err != nil { // owned, proven, or the fetch failed: finish the draft here
			if !proven {
				if err := s.plan.acquire(ctx); err != nil {
					return nil, err
				}
				defer s.plan.release()
			}
			if plan, sim, err = s.planner.PlanDraft(ctx, cacheKey, d); err != nil {
				return nil, err
			}
			s.exitC.count(&plan.Report)
		}
		enc, err := newEncodedPlan(plan, sim, opts, cacheKey)
		if err != nil {
			return nil, err
		}
		if s.router != nil {
			enc.req = wireReq
		}
		s.cache.Attach(cacheKey, enc)
		return enc, nil
	})
	if err != nil {
		return nil, shared, err
	}
	return v.(*encodedPlan), shared, nil
}

// cachedPlan returns the pre-serialized bodies of the key's completed cache
// entry, or nil when the key is not cached. An entry without them predates
// this server's fills (shared cache) or its attach raced an eviction; it is
// serialized now so the next hit is free.
func (s *Server) cachedPlan(cacheKey string, opts resharding.Options) (*encodedPlan, error) {
	plan, sim, att, ok := s.cache.LookupKeyedAttachment(cacheKey)
	if !ok {
		return nil, nil
	}
	if enc, _ := att.(*encodedPlan); enc != nil {
		return enc, nil
	}
	enc, err := newEncodedPlan(plan, sim, opts, cacheKey)
	if err != nil {
		return nil, err
	}
	s.cache.Attach(cacheKey, enc)
	return enc, nil
}

// isPeerRequest reports whether the request came from another tier node
// (see PeerHeader); such requests always resolve locally.
func isPeerRequest(r *http.Request) bool { return r.Header.Get(PeerHeader) != "" }

// servePlan writes one plan response from the entry's pre-serialized
// bodies: a pooled buffer, the fill-time bytes, and at most the coalesced
// flag and the translated sender section patched — no marshaling.
//
//alpacomm:hotpath
func servePlan(w http.ResponseWriter, c *endpointCounters, enc *encodedPlan, task *sharding.Task, shared, binary bool) {
	buf := getBuf()
	var b []byte
	if binary {
		b = enc.appendBinary((*buf)[:0], task, shared)
	} else {
		b = append(enc.appendJSON((*buf)[:0], task, shared), '\n')
	}
	*buf = b
	c.ok.Add(1)
	if binary {
		writeBinary(w, http.StatusOK, b)
	} else {
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	}
	putBuf(buf)
}

// Content-Type values shared by every plan response: storing one in the
// header map skips the slice Header.Set allocates. Header values are
// replaced, never edited in place, so sharing them is safe.
var (
	jsonContentType   = []string{"application/json"}
	binaryContentType = []string{ContentTypeBinary}
)

// writeBinary writes one complete binary frame.
func writeBinary(w http.ResponseWriter, status int, frame []byte) {
	w.Header()["Content-Type"] = binaryContentType
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// wantsBinary reports whether the request negotiated the binary response
// format.
func wantsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeBinary)
}

// computeAutotune serves one canonical grid search, coalesced with
// identical in-flight searches and admitted to the autotune pool under the
// caller's context. Workers is excluded from the coalescing key: the
// search result is deterministic and identical for every worker count.
func (s *Server) computeAutotune(ctx context.Context, cacheKey string, task *sharding.Task, opts resharding.Options, workers int) (*AutotuneResponse, bool, error) {
	v, err, shared := s.flight.do(ctx, "autotune|"+cacheKey, func() (interface{}, error) {
		if err := s.autotune.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.autotune.release()
		res, err := s.planner.AutotuneWorkers(ctx, task, opts, workers)
		if err != nil {
			return nil, err
		}
		resp := &AutotuneResponse{
			Winner:          res.Trials[res.BestIndex].Candidate.String(),
			BestIndex:       res.BestIndex,
			MakespanSeconds: res.BestSim.Makespan,
			EffectiveGbps:   res.BestSim.EffectiveGbps,
			Trials:          make([]AutotuneTrial, len(res.Trials)),
		}
		for i, tr := range res.Trials {
			resp.Trials[i] = AutotuneTrial{
				Candidate:       tr.Candidate.String(),
				MakespanSeconds: tr.Makespan,
				EffectiveGbps:   tr.EffectiveGbps,
				Err:             tr.Err,
			}
		}
		return resp, nil
	})
	if err != nil {
		return nil, shared, err
	}
	return v.(*AutotuneResponse), shared, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeV2Error(w, http.StatusMethodNotAllowed, V2Error{
			Code: CodeMethodNotAllowed, Message: "use GET",
		}, wantsBinary(r))
		return
	}
	resp := StatsResponse{
		Cache:         wireCacheStats(s.cache.Stats()),
		AutotuneCache: wireCacheStats(s.autotuneCache.Stats()),
		Plan:          s.planC.snapshot(),
		Autotune:      s.autotuneC.snapshot(),
		Batch:         s.batchC.snapshot(),
		Topologies:    s.reg.Names(),
		Exits:         s.exitC.snapshot(),
	}
	if s.router != nil {
		cs := s.router.Info()
		cs.RoutedProxied = s.routedProxyC.Load()
		cs.RoutedLocal = resp.Plan.MissesProven + resp.Plan.MissesSearched - cs.RoutedProxied
		cs.ProxyFallbacks = s.proxyFallbackC.Load()
		resp.Cluster = &cs
	}
	if s.slo != nil {
		a := s.slo.Snapshot()
		resp.Admission = &a
	}
	writeJSON(w, http.StatusOK, resp)
}

// badRequestError marks a request that parsed as HTTP but cannot be
// planned as asked: unknown topology, bad mesh, out-of-bound effort.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// parseTask runs the bounded pre-admission stage: under a token of gate it
// builds the topology, decomposes the task and renders the canonical cache
// key; gate is nil for a caller that already holds one (/v2/plan's phase
// one). Failures are classified, not written: intake overflow and context
// ends surface as-is (retryable), everything else as *badRequestError.
//
// Fault-free requests are memoized on their raw wire fields: a repeated
// request returns the stored (task, options, key) without touching the
// gate — the memo hit does no bounded work for the gate to bound. This is
// the name /v2/autotune, ParsePlanRequest, Replay and a /v2/plan body the
// body memo does not know find a parse under; batch items build their
// tasks directly and never consult it.
func (s *Server) parseTask(ctx context.Context, gate *admission,
	ref TopologyRef, faults *FaultsRef, shape []int, dtype string, src, dst Endpoint, po PlanOptions) (task *sharding.Task, opts resharding.Options, key string, err error) {

	if faults == nil {
		if pr, ok := s.reqMemo.get(ref, shape, dtype, src, dst, po); ok {
			return pr.task, pr.opts, pr.key, nil
		}
	}
	if gate != nil {
		if err := gate.acquire(ctx); err != nil {
			return nil, opts, "", err
		}
		defer gate.release()
	}
	topo, err := buildTopology(s.reg, &s.topos, ref, faults)
	if err == nil {
		task, opts, err = buildTaskOn(topo, shape, dtype, src, dst, po)
	}
	if err != nil {
		return nil, opts, "", &badRequestError{err}
	}
	key = resharding.CacheKey(task, opts)
	if faults == nil {
		s.reqMemo.put(ref, shape, dtype, src, dst, po, parsedReq{task: task, opts: opts, key: key})
	}
	return task, opts, key, nil
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func wireCacheStats(cs resharding.CacheStats) CacheStats {
	return CacheStats{
		Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries,
		Evictions: cs.Evictions, Capacity: cs.Capacity,
	}
}

// encodeFailureLog rate-limits the encode-failure log line: a payload that
// cannot encode is a programming bug hit on every affected request, and
// one line is enough to surface it.
var encodeFailureLog sync.Once

// encodeFailureBody is the 500 written when a response cannot be encoded: a
// literal V2ErrorEnvelope, since the encoder is what just failed.
const encodeFailureBody = `{"error":{"code":"` + CodeInternal + `","message":"response encoding failed"}}` + "\n"

// writeJSON encodes the payload into a pooled buffer first and only then
// touches the ResponseWriter. Encoding a response type can only fail on a
// programming bug (an unencodable field), but the old stream-encoder path
// discovered that after the 200 header was committed and silently
// truncated the body; buffering turns the same bug into a logged 500 with
// an intact error envelope.
func writeJSON(w http.ResponseWriter, status int, payload interface{}) {
	je := getEncoder()
	if err := je.enc.Encode(payload); err != nil {
		putEncoder(je)
		encodeFailureLog.Do(func() {
			log.Printf("service: response encoding failed (suppressing further reports): %v", err)
		})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(encodeFailureBody))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(je.buf.Bytes())
	putEncoder(je)
}
