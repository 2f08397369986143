package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	alpacomm "alpacomm"
	"alpacomm/internal/cluster"
	"alpacomm/internal/harness"
	"alpacomm/internal/mesh"
	"alpacomm/internal/model"
	"alpacomm/internal/netsim"
	"alpacomm/internal/pipeline"
	"alpacomm/internal/resharding"
	"alpacomm/internal/schedule"
	"alpacomm/internal/service"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// The traced pass. Nothing inside the program is instrumented: every span
// here is recorded by this file around a call into a layer's public
// function. Three things happen, in order:
//
//  1. Rounds of the workload with tracing off and with a root span
//     recorded around every operation, in turn; the ratio of their best
//     throughputs is the tracing overhead, and the last traced round's end
//     state supplies the workload's counts (hit fraction, evictions,
//     proxied fraction, ...).
//  2. The ladder: each of a sample of the workload's own problems is walked
//     through every layer's public calls, one probe span per call. The
//     per-layer timings are medians over these spans.
//  3. The replay: a sample of the workload's requests is sent one at a
//     time through its real entry point as root spans; counters read
//     before and after each request say which path it took, and the
//     ladder's timings for that problem are laid inside the root as child
//     spans along that path. What the children leave uncovered is the
//     unexplained share.

// Span names. A per-layer timing metric is the median of the probe spans of
// one name.
const (
	spTopoBuild    = "mesh.topology_build"
	spFaultOverlay = "mesh.fault_overlay"
	spFingerprint  = "mesh.fingerprint"
	spParseKey     = "service.parse_key"
	spParseMemo    = "service.parse_key_memo"
	spDecompose    = "sharding.decompose"
	spCacheKey     = "resharding.cache_key"
	spPlanBuild    = "resharding.plan_build"
	spEnsemble     = "schedule.ensemble"
	spDFS          = "schedule.dfs"
	spGreedy       = "schedule.greedy_ensemble"
	spSimulate     = "netsim.simulate"
	spSimTraced    = "netsim.simulate_traced"
	spInstall      = "service.install_encode"
	spHitJSON      = "service.handler_hit_json"
	spHitBinary    = "service.handler_hit_binary"
	spLookup       = "resharding.cache_lookup"
	spMiss         = "service.handler_miss"
	spCacheFill    = "resharding.cache_fill"
	spFrameDecode  = "service.frame_decode"
	spVerifyFill   = "cluster.verify_fill"
	spRingOwner    = "cluster.ring_owner"
	spFetch        = "cluster.fetch"
	spRoundTrip    = "service.client_roundtrip_hit"
	spWarmIdentity = "resharding.warm_identity"
	spWarmSearch   = "resharding.warm_search"
	spColdReplan   = "resharding.cold_replan"
)

// recipe is the tree of staged calls known to run inside a span.
type recipe struct {
	name string
	kids []recipe
	// orElse stands in when the ladder has no timing under name: the call
	// the path makes instead.
	orElse *recipe
}

func leaf(names ...string) []recipe {
	out := make([]recipe, len(names))
	for i, n := range names {
		out[i] = recipe{name: n}
	}
	return out
}

var (
	parseTree = recipe{name: spParseKey, kids: leaf(spFaultOverlay, spDecompose, spCacheKey)}
	buildTree = recipe{name: spPlanBuild, kids: leaf(spEnsemble)}
	missTree  = recipe{name: spMiss, kids: []recipe{parseTree, buildTree, {name: spSimulate}, {name: spInstall}}}
	// A faulted request is never memoized, so its hit parses in full, and
	// the ladder has no memo timing for it.
	hitKids = []recipe{{name: spParseMemo, orElse: &parseTree}, {name: spLookup}}
	hitTree = recipe{name: spHitJSON, kids: hitKids}
)

// Path classes of a replayed request, and what is known to run on each.
var pathRecipes = map[string][]recipe{
	"cold":              {parseTree, buildTree, {name: spSimulate}},
	"hit":               hitKids,
	"tcp_hit":           {hitTree},
	"tcp_miss":          {missTree},
	"tcp_proxied":       {parseTree, {name: spRingOwner}, {name: spFetch, kids: []recipe{missTree, {name: spFrameDecode}, {name: spVerifyFill}}}, {name: spInstall}},
	"tcp_proxied_hit":   {parseTree, {name: spRingOwner}, {name: spRoundTrip, kids: []recipe{hitTree}}, {name: spFrameDecode}, {name: spVerifyFill}, {name: spInstall}},
	"tcp_warm_identity": {parseTree, {name: spWarmIdentity}, {name: spSimulate}, {name: spInstall}},
	"tcp_warm_search":   {parseTree, {name: spWarmSearch}, {name: spInstall}},
}

// env is the ladder's probe environment.
type env struct {
	tr    *tracer
	reg   *mesh.Registry
	parse *service.Server
	// tier is a 2-node probe tier with roomy caches, for the proxy hop and
	// the loopback round trip.
	tier  *state
	peers []*service.Client
	// dur[problem][span name] is the ladder's timing of one call.
	dur map[int]map[string]time.Duration
	// Counts taken beside the spans.
	units, simOps, gaps, jsonBytes, binBytes []float64
	// overlayUs is every problem's overlay probe; dur keeps a faulted
	// problem's only.
	overlayUs             []float64
	warmTried, warmServed int
	closeIdle             func()
}

func newEnv(tr *tracer) (*env, error) {
	tier, err := startTier(tierNodes, 2*service.DefaultCacheCapacity)
	if err != nil {
		return nil, err
	}
	e := &env{tr: tr, reg: mesh.DefaultRegistry(), parse: service.New(service.Config{}), tier: tier, dur: map[int]map[string]time.Duration{}}
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	e.closeIdle = transport.CloseIdleConnections
	for _, u := range tier.urls {
		e.peers = append(e.peers, service.NewClient(u, &http.Client{Transport: transport}))
	}
	return e, nil
}

func (e *env) close() {
	e.closeIdle()
	e.tier.close()
}

// stage times one public call as a probe span for a problem.
func (e *env) stage(p int, name string, fn func() error) error {
	var err error
	_, d := e.tr.timed(noReq, p, name, func() { err = fn() })
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	e.dur[p][name] = d
	return nil
}

// serveDiscard serves one prepared request in process, dropping the body.
func serveDiscard(h http.Handler, hr *http.Request, rd io.Seeker, w *discardWriter) error {
	if _, err := rd.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.status = 0
	h.ServeHTTP(w, hr)
	if w.status != http.StatusOK {
		return fmt.Errorf("status %d", w.status)
	}
	return nil
}

// faultedTask rebinds a task to a registry fault scenario over its own
// topology.
func (e *env) faultedTask(task *sharding.Task, scenario string) (*sharding.Task, error) {
	topo := task.Src.Mesh.Topo
	fs, err := e.reg.BuildFaultScenario(scenario, topo)
	if err != nil {
		return nil, err
	}
	ft, err := mesh.NewFaulted(topo, fs)
	if err != nil {
		return nil, err
	}
	return task.OnTopology(ft)
}

// warmReplan times one warm replan of task from (fromTask, incumbent) and
// files it under the mode it was served in.
func (e *env) warmReplan(p int, task *sharding.Task, opts resharding.Options, fromTask *sharding.Task, incumbent *resharding.Plan) error {
	var info resharding.WarmInfo
	start := time.Now()
	_, _, info, err := resharding.WarmReplanContext(bg, task, opts, fromTask, incumbent)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("warm replan: %w", err)
	}
	e.warmTried++
	name := ""
	switch info.Mode {
	case resharding.WarmIdentity:
		name = spWarmIdentity
		e.warmServed++
	case resharding.WarmSearch:
		name = spWarmSearch
		e.warmServed++
	case resharding.WarmIncumbent:
		name = spWarmSearch // searched, then served the incumbent
	default:
		return nil // fell back to a cold plan: no warm timing to report
	}
	e.tr.record(noReq, p, name, start, end)
	e.dur[p][name] = end.Sub(start)
	return nil
}

// ladder walks one problem through every layer's public calls.
func (e *env) ladder(idx int, p problem) error {
	e.dur[idx] = map[string]time.Duration{}
	faulted := p.Req.Faults != nil
	ref := p.Req.Topology
	// An untimed pass over the problem first, so every timed call below
	// finds the processor equally warm: a call and the sum of the calls it
	// makes are then comparable, whichever is timed first.
	if _, _, err := direct(p); err != nil {
		return err
	}

	var topo mesh.Topology
	if err := e.stage(idx, spTopoBuild, func() (err error) {
		topo, err = e.reg.Build(ref.Name, mesh.TopologyParams{Hosts: ref.Hosts, Oversubscription: ref.Oversubscription})
		return err
	}); err != nil {
		return err
	}
	// Every problem probes an overlay; only a faulted request pays for one
	// on its own path, so only then is the timing kept for the replay.
	scenario := mesh.FaultBrownout
	if faulted {
		scenario = p.Req.Faults.Scenario
	}
	var overlay mesh.Topology
	if err := e.stage(idx, spFaultOverlay, func() error {
		fs, err := e.reg.BuildFaultScenario(scenario, topo)
		if err != nil {
			return err
		}
		overlay, err = mesh.NewFaulted(topo, fs)
		return err
	}); err != nil {
		return err
	}
	e.overlayUs = append(e.overlayUs, float64(e.dur[idx][spFaultOverlay].Nanoseconds())/perUs)
	if !faulted {
		delete(e.dur[idx], spFaultOverlay)
		overlay = topo
	}
	_ = e.stage(idx, spFingerprint, func() error { _ = overlay.Fingerprint(); return nil })

	// The probe server has never seen this request: a cold parse memo, and
	// a topology memo as warm as a running server's.
	var task *sharding.Task
	var opts resharding.Options
	var key string
	if err := e.stage(idx, spParseKey, func() (err error) {
		task, opts, key, err = e.parse.ParsePlanRequest(bg, &p.Req)
		return err
	}); err != nil {
		return err
	}
	if !faulted {
		if err := e.stage(idx, spParseMemo, func() error {
			_, _, _, err := e.parse.ParsePlanRequest(bg, &p.Req)
			return err
		}); err != nil {
			return err
		}
	}
	if err := e.stage(idx, spDecompose, func() error {
		_, err := sharding.NewTask(task.Global, task.DType, task.Src.Mesh, task.Src.Spec, task.Dst.Mesh, task.Dst.Spec)
		return err
	}); err != nil {
		return err
	}
	_ = e.stage(idx, spCacheKey, func() error { _ = resharding.CacheKey(task, opts); return nil })
	e.units = append(e.units, float64(len(task.Units)))

	var plan *resharding.Plan
	if err := e.stage(idx, spPlanBuild, func() (err error) {
		plan, err = resharding.NewPlanContext(bg, task, opts)
		return err
	}); err != nil {
		return err
	}
	_ = e.stage(idx, spEnsemble, func() error {
		schedule.EnsembleNodesStop(plan.HostTasks, opts.DFSNodes, opts.Trials, rand.New(rand.NewSource(opts.Seed)), nil)
		return nil
	})
	if len(plan.HostTasks) <= 20 { // the ensemble runs the DFS only up to here
		_ = e.stage(idx, spDFS, func() error { schedule.DFSPruningNodesStop(plan.HostTasks, opts.DFSNodes, nil); return nil })
	}
	_ = e.stage(idx, spGreedy, func() error { schedule.GreedyEnsemble(plan.HostTasks); return nil })
	if span, err := plan.HostMakespan(); err == nil {
		if lb := schedule.LowerBound(plan.HostTasks); lb > 0 {
			e.gaps = append(e.gaps, span/lb)
		}
	}

	var sim *resharding.SimResult
	if err := e.stage(idx, spSimulate, func() (err error) {
		sim, err = plan.SimulateNoTrace()
		return err
	}); err != nil {
		return err
	}
	e.simOps = append(e.simOps, float64(sim.NumOps))
	if err := e.stage(idx, spSimTraced, func() error { _, err := plan.Simulate(); return err }); err != nil {
		return err
	}

	// Install on a fresh server, then serve hits from it.
	warm := service.New(service.Config{})
	if err := e.stage(idx, spInstall, func() error {
		if !warm.InstallPlan(key, plan, sim, opts) {
			return fmt.Errorf("key already resident on a fresh server")
		}
		return nil
	}); err != nil {
		return err
	}
	var frame []byte
	w := &discardWriter{h: http.Header{}}
	for _, f := range []struct {
		name   string
		binary bool
		bytes  *[]float64
	}{{spHitJSON, false, &e.jsonBytes}, {spHitBinary, true, &e.binBytes}} {
		// The first request fills the parse memo and is read for its size;
		// the second is the hit that is timed.
		status, body, err := serveCaptured(warm, &p.Req, f.binary)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s: status %d, %v", f.name, status, err)
		}
		*f.bytes = append(*f.bytes, float64(len(body)))
		if f.binary {
			frame = body
		}
		hr, rd, err := planHTTPRequest(&p.Req, f.binary)
		if err != nil {
			return err
		}
		if err := e.stage(idx, f.name, func() error { return serveDiscard(warm, hr, rd, w) }); err != nil {
			return err
		}
	}
	if err := e.stage(idx, spLookup, func() error {
		if _, _, ok := warm.Cache().LookupKeyed(key); !ok {
			return fmt.Errorf("installed key not found")
		}
		return nil
	}); err != nil {
		return err
	}

	// The whole miss through the handler, on a server that has nothing.
	hr, rd, err := planHTTPRequest(&p.Req, false)
	if err != nil {
		return err
	}
	cold := service.New(service.Config{})
	if err := e.stage(idx, spMiss, func() error { return serveDiscard(cold, hr, rd, w) }); err != nil {
		return err
	}
	// The cache fill alone: a session's cold PlanKeyed.
	session := resharding.NewPlanner(resharding.WithLRUCache(4), resharding.WithTraceFreeSim())
	if err := e.stage(idx, spCacheFill, func() error {
		_, _, err := session.PlanKeyed(bg, key, task, opts)
		return err
	}); err != nil {
		return err
	}

	// The pieces of a proxied fill, then the fetch itself on the probe
	// tier: the node that does not own the key asks the one that does.
	var resp *service.PlanResponse
	if err := e.stage(idx, spFrameDecode, func() (err error) {
		resp, err = service.DecodePlanFrame(frame)
		return err
	}); err != nil {
		return err
	}
	if err := e.stage(idx, spVerifyFill, func() error { _, _, err := cluster.VerifyFill(task, opts, resp); return err }); err != nil {
		return err
	}
	var owner string
	ring := e.tier.nodes[0].Ring()
	_ = e.stage(idx, spRingOwner, func() error { owner, _ = ring.Owner(key); return nil })
	ownerIdx := 0
	if owner == e.tier.nodes[1].NodeID() {
		ownerIdx = 1
	}
	if err := e.stage(idx, spFetch, func() error {
		_, _, err := e.tier.nodes[1-ownerIdx].Fetch(bg, owner, key, &p.Req, task, opts)
		return err
	}); err != nil {
		return err
	}
	// The owner now holds the key: a loopback round trip to it is a hit.
	if err := e.stage(idx, spRoundTrip, func() error { _, err := clientDo(e.peers[ownerIdx], &p); return err }); err != nil {
		return err
	}

	// Replans. A faulted request replans warm from its own fault-free twin;
	// a healthy one is probed under a link overlay (expected: identity) and
	// a straggler (expected: search), and replanned cold under the latter.
	if faulted {
		healthy := p.Req
		healthy.Faults = nil
		twin, _, _, err := e.parse.ParsePlanRequest(bg, &healthy)
		if err != nil {
			return fmt.Errorf("fault-free twin: %w", err)
		}
		incumbent, err := resharding.NewPlanContext(bg, twin, opts)
		if err != nil {
			return err
		}
		return e.warmReplan(idx, task, opts, twin, incumbent)
	}
	for _, scenario := range []string{mesh.FaultBrownout, mesh.FaultStraggler} {
		ftask, err := e.faultedTask(task, scenario)
		if err != nil {
			return err
		}
		if err := e.warmReplan(idx, ftask, opts, task, plan); err != nil {
			return err
		}
		if scenario == mesh.FaultStraggler {
			if err := e.stage(idx, spColdReplan, func() error { _, err := resharding.NewPlanContext(bg, ftask, opts); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanMedian is the median duration of the ladder's spans of one name, in
// the given unit (nanoseconds per unit).
func (e *env) spanMedian(name string, unit float64) float64 {
	return e.derived(unit, func(d map[string]time.Duration) (time.Duration, bool) {
		v, ok := d[name]
		return v, ok
	})
}

// derived is the median over laddered problems of a quantity computed from
// one problem's timings; problems that lack a term are skipped.
func (e *env) derived(unit float64, f func(map[string]time.Duration) (time.Duration, bool)) float64 {
	var xs []float64
	for _, d := range e.dur {
		if v, ok := f(d); ok {
			xs = append(xs, float64(v.Nanoseconds())/unit)
		}
	}
	return median(xs)
}

// minus returns a derived quantity: one span less the spans of the calls it
// is known to make, per problem.
func minus(whole string, parts ...string) func(map[string]time.Duration) (time.Duration, bool) {
	return func(d map[string]time.Duration) (time.Duration, bool) {
		v, ok := d[whole]
		for _, p := range parts {
			pv, has := d[p]
			v, ok = v-pv, ok && has
		}
		return v, ok
	}
}

const (
	perNs = 1.0
	perUs = 1e3
	perMs = 1e6
)

// statsOf reads a server's /v2/stats in process: the counts at the same
// boundary as the spans.
func statsOf(srv *service.Server) (*service.StatsResponse, error) {
	hr, err := http.NewRequest(http.MethodGet, "/v2/stats", nil)
	if err != nil {
		return nil, err
	}
	w := &captureWriter{discardWriter: discardWriter{h: http.Header{}}}
	srv.ServeHTTP(w, hr)
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", w.status)
	}
	var st service.StatsResponse
	if err := json.Unmarshal(w.body.Bytes(), &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func allStats(st *state) ([]*service.StatsResponse, error) {
	out := make([]*service.StatsResponse, len(st.servers))
	for i, srv := range st.servers {
		s, err := statsOf(srv)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// classify names the path a replayed request took from the counters that
// moved while it ran. target is the server it was sent to.
func classify(before, after []*service.StatsResponse, target int) string {
	var hitsT, missT, hitsO, missO int
	var identity, search int64
	for i := range after {
		dh := after[i].Cache.Hits - before[i].Cache.Hits
		dm := after[i].Cache.Misses - before[i].Cache.Misses
		if i == target {
			hitsT, missT = dh, dm
		} else {
			hitsO, missO = hitsO+dh, missO+dm
		}
		identity += after[i].Replan.WarmIdentity - before[i].Replan.WarmIdentity
		search += after[i].Replan.WarmSearch + after[i].Replan.WarmRejected - before[i].Replan.WarmSearch - before[i].Replan.WarmRejected
	}
	switch {
	case identity > 0:
		return "tcp_warm_identity"
	case search > 0:
		return "tcp_warm_search"
	case missT > 0:
		return "tcp_miss"
	case missO > 0:
		return "tcp_proxied"
	case hitsO > 0 && hitsT == 0:
		return "tcp_proxied_hit"
	case hitsT > 0:
		return "tcp_hit"
	}
	return "unclassified"
}

// attach lays the ladder's timings for a problem inside a span along a
// recipe and returns the time its top level covers; calls the ladder has
// no timing for are left out.
func (e *env) attach(parent int, rs []recipe, d map[string]time.Duration) (covered time.Duration) {
	for _, r := range rs {
		v, ok := d[r.name]
		if !ok && r.orElse != nil {
			r = *r.orElse
			v, ok = d[r.name]
		}
		if !ok {
			continue
		}
		covered += v
		e.attach(e.tr.child(parent, r.name, v), r.kids, d)
	}
	return covered
}

// replay sends the first n operations one at a time through the workload's
// entry point on a fresh state, classifies each, and stages the laddered
// ones. It returns the share of the staged requests' time that the staged
// calls along their paths do not account for, and how many requests took
// each path.
func (e *env) replay(inst *instance, n int) (unexplained float64, paths map[string]int, err error) {
	st, err := inst.fresh()
	if err != nil {
		return 0, nil, err
	}
	defer st.close()
	paths = map[string]int{}
	// Signed on purpose: where a staged call measured slower than the same
	// work inside the request, the share comes out below zero rather than
	// being clipped into looking explained.
	var total, explained time.Duration
	for i := 0; i < n && i < len(inst.ops); i++ {
		o := inst.ops[i]
		class := "cold"
		var before []*service.StatsResponse
		switch inst.name {
		case planCold:
		case serveHit:
			class = "hit"
		default:
			if before, err = allStats(st); err != nil {
				return 0, nil, err
			}
		}
		var doErr error
		root, rootDur := e.tr.timed(i, o.Problem, spanRoot, func() { _, doErr = st.do(0, i) })
		if doErr != nil {
			return 0, nil, fmt.Errorf("replaying operation %d: %w", i, doErr)
		}
		if before != nil {
			after, err := allStats(st)
			if err != nil {
				return 0, nil, err
			}
			target := 0
			if inst.name == tierZipf {
				target = o.Variant
			}
			class = classify(before, after, target)
		}
		paths[class]++
		if d, ok := e.dur[o.Problem]; ok {
			explained += e.attach(root, pathRecipes[class], d)
			total += rootDur
		}
	}
	if total > 0 {
		unexplained = 1 - float64(explained)/float64(total)
	}
	return unexplained, paths, nil
}

// fig7Geomean is the geometric mean of the training throughputs of the
// whole Fig. 7 sweep: exact for a given planner and pipeline simulator.
func fig7Geomean() (float64, error) {
	rows, err := alpacomm.Fig7Rows(1)
	if err != nil {
		return 0, fmt.Errorf("fig 7 sweep: %w", err)
	}
	tflops := make([]float64, len(rows))
	for i, r := range rows {
		tflops[i] = r.TFLOPS
	}
	return geomean(tflops), nil
}

// fixedProbes measures what no workload exercises, on Table 2's first case
// (every population's first problem) where a problem is needed. Values are
// keyed by metric name.
func (e *env) fixedProbes(first problem, outDir string, snapNode *cluster.Node) (map[string]float64, error) {
	out := map[string]float64{}
	timeMedian := func(span string, reps int, unit float64, fn func() error) (float64, error) {
		var xs []float64
		for r := 0; r < reps; r++ {
			var err error
			_, d := e.tr.timed(noReq, 0, span, func() { err = fn() })
			if err != nil {
				return 0, fmt.Errorf("%s: %w", span, err)
			}
			xs = append(xs, float64(d.Nanoseconds())/unit)
		}
		return median(xs), nil
	}
	var err error

	if out["resharding.autotune_grid_ms"], err = timeMedian("resharding.autotune_grid", 3, perMs, func() error {
		_, err := resharding.NewPlanner().Autotune(bg, first.Task, first.Opts)
		return err
	}); err != nil {
		return nil, err
	}

	arena := netsim.NewClusterNet(mesh.AWSP3Cluster(4))
	if out["netsim.replay_us"], err = timeMedian("netsim.replay", 5, perUs, func() error {
		arena.Reset()
		if err := harness.NetsimReplayTransfers(arena); err != nil {
			return err
		}
		_, err := arena.Run()
		return err
	}); err != nil {
		return nil, err
	}

	pcfg := pipeline.Config{Stages: 4, MicroBatches: 32, Schedule: pipeline.Eager1F1B, Overlap: true,
		FwdTime: []float64{1, 1, 1, 1}, BwdTime: []float64{2, 2, 2, 2}, FwdCommTime: []float64{0.3, 0.3, 0.3}}
	if out["pipeline.simulate_us"], err = timeMedian("pipeline.simulate", 5, perUs, func() error {
		_, err := pipeline.Simulate(pcfg)
		return err
	}); err != nil {
		return nil, err
	}

	// Table 3's first job under "Ours", planned by a fresh session.
	pc := model.ParallelConfig{DP: 2, OP: 2, PP: 2}
	gpt, err := model.NewGPTWorkload(model.GPT1_3B(), pc, tensor.Float16, 1024, 2)
	if err != nil {
		return nil, err
	}
	if out["alpacomm.trainjob_run_ms"], err = timeMedian("alpacomm.trainjob_run", 3, perMs, func() error {
		job := alpacomm.TrainingJob{Cluster: mesh.AWSP3Cluster(2), Device: model.V100(), Workload: gpt, Parallel: pc,
			Schedule: pipeline.Eager1F1B, Overlap: true, Planner: alpacomm.NewPlanner(),
			Reshard: resharding.Options{Strategy: resharding.Broadcast, Scheduler: resharding.SchedEnsemble, Seed: 1}}
		_, err := job.RunContext(bg)
		return err
	}); err != nil {
		return nil, err
	}
	if out["pipeline.fig7_tflops_geomean"], err = fig7Geomean(); err != nil {
		return nil, err
	}

	// A batch of congruent boundaries: one request, items differing in seed.
	batch := &service.BatchPlanRequest{Topology: first.Req.Topology}
	const batchItems = 16
	for i := 0; i < batchItems; i++ {
		po := first.Req.Options
		po.Seed = int64(1000 + i)
		batch.Items = append(batch.Items, service.BatchPlanItem{Shape: first.Req.Shape, DType: first.Req.DType, Src: first.Req.Src, Dst: first.Req.Dst, Options: po})
	}
	perBatch, err := timeMedian("service.batch", 3, perUs, func() error {
		for i := range batch.Items {
			batch.Items[i].Options.Seed += batchItems // new keys: every item is planned
		}
		resp, err := e.peers[0].PlanBatch(bg, batch)
		if err == nil && len(resp.Items) != batchItems {
			err = fmt.Errorf("batch answered %d items", len(resp.Items))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["service.batch_item_us"] = perBatch / batchItems

	ctl := service.NewSLOController(service.SLOConfig{P99Budget: sloLimit}, nil)
	const admits = 1000
	perLoop, err := timeMedian("service.slo_admit", 5, perNs, func() error {
		for i := 0; i < admits; i++ {
			ctl.Admit(1)
			ctl.Observe(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["service.slo_admit_ns"] = perLoop / admits

	// Allocation counts of the four hot paths, on the first problem.
	out["resharding.plan_allocs_per_op"] = testing.AllocsPerRun(5, func() { _, _ = resharding.NewPlanContext(bg, first.Task, first.Opts) })
	plan, err := resharding.NewPlanContext(bg, first.Task, first.Opts)
	if err != nil {
		return nil, err
	}
	out["netsim.sim_allocs_per_op"] = testing.AllocsPerRun(5, func() { _, _ = plan.SimulateNoTrace() })
	hr, rd, err := planHTTPRequest(&first.Req, false)
	if err != nil {
		return nil, err
	}
	w := &discardWriter{h: http.Header{}}
	hot := service.New(service.Config{})
	if err := serveDiscard(hot, hr, rd, w); err != nil {
		return nil, err
	}
	out["service.hit_allocs_per_op"] = testing.AllocsPerRun(100, func() { _ = serveDiscard(hot, hr, rd, w) })
	out["service.miss_allocs_per_op"] = testing.AllocsPerRun(5, func() { _ = serveDiscard(service.New(service.Config{}), hr, rd, w) })

	// The hit path's tail needs more samples than the ladder has problems.
	const tailHits = 4000
	lat := make([]float64, tailHits)
	for i := range lat {
		t0 := time.Now()
		if err := serveDiscard(hot, hr, rd, w); err != nil {
			return nil, err
		}
		lat[i] = float64(time.Since(t0).Nanoseconds()) / perUs
	}
	sort.Float64s(lat)
	out["service.hit_p99_us"] = percentile(lat, 99)

	// Snapshot and restore of a tier node's end state.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "probe.snapshot")
	defer os.Remove(path)
	if out["cluster.snapshot_ms"], err = timeMedian("cluster.snapshot", 1, perMs, func() error {
		_, err := snapNode.Snapshot(path)
		return err
	}); err != nil {
		return nil, err
	}
	restored, err := cluster.New(cluster.Config{NodeID: "restored"}, service.New(service.Config{}))
	if err != nil {
		return nil, err
	}
	if out["cluster.restore_ms"], err = timeMedian("cluster.restore", 1, perMs, func() error {
		st, err := restored.Restore(bg, path)
		if err == nil && st.Rejected > 0 {
			err = fmt.Errorf("%d of %d snapshot records rejected", st.Rejected, st.Entries)
		}
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// workloadCounts reads a state's counters after a round.
func workloadCounts(st *state) (map[string]float64, error) {
	stats, err := allStats(st)
	if err != nil {
		return nil, err
	}
	var hits, misses, evictions, requests, coalesced int
	var local, proxied, fallbacks, rejects int64
	for _, s := range stats {
		hits, misses, evictions = hits+s.Cache.Hits, misses+s.Cache.Misses, evictions+s.Cache.Evictions
		requests, coalesced = requests+int(s.Plan.Requests), coalesced+int(s.Plan.Coalesced)
		if c := s.Cluster; c != nil {
			local, proxied, fallbacks, rejects = local+c.RoutedLocal, proxied+c.RoutedProxied, fallbacks+c.ProxyFallbacks, rejects+c.VerifiedFillRejects
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Keys resident on more than one node shrink the tier's effective
	// capacity.
	resident := map[string]int{}
	for _, srv := range st.servers {
		for _, ep := range srv.ExportPlans() {
			resident[ep.Key]++
		}
	}
	dup := 0
	for _, n := range resident {
		if n > 1 {
			dup++
		}
	}
	return map[string]float64{
		"resharding.cache_hit_fraction":    ratio(float64(hits), float64(hits+misses)),
		"resharding.cache_evictions":       float64(evictions),
		"service.coalesced_fraction":       ratio(float64(coalesced), float64(requests)),
		"cluster.proxied_fraction":         ratio(float64(proxied), float64(local+proxied)),
		"cluster.proxy_fallbacks":          float64(fallbacks),
		"cluster.verified_rejects":         float64(rejects),
		"cluster.duplicate_entry_fraction": ratio(float64(dup), float64(len(resident))),
	}, nil
}

// ladderProblems picks the problems to ladder: the distinct problems of the
// replayed operations, in order of first use.
func ladderProblems(inst *instance, ops int) []int {
	seen := map[int]bool{}
	var out []int
	for i := 0; i < ops && i < len(inst.ops); i++ {
		if p := inst.ops[i].Problem; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// runTraced is the traced pass for one workload; it reports the per-layer
// metrics and returns the spans for trace.json.
func runTraced(name string, cfg runConfig) (*runReport, *traceFile, error) {
	inst, st, _, err := timedSetup(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &runReport{Workload: name, Seed: cfg.seed, Traced: true, Stream: inst.hash, Correct: true}
	values := map[string]float64{}
	opMakespan := make([]float64, len(inst.ops))

	// 1. After one round that warms the process up (the first runs up to
	// twice as slow), rounds with tracing off and on in turn. Like every
	// speed here the two throughputs are read from their best rounds; a
	// single pair of rounds differed by +-20% on the reference box with no
	// tracing at all.
	pairs := 4
	if cfg.maxRounds > 0 {
		pairs = 1
	}
	var plain, traced []roundStats
	// The untraced rounds run one operation list, so their latencies pool
	// into one sample large enough for a p99.
	var plainLat []float64
	roundSpans := 0
	for i := 0; i <= 2*pairs; i++ {
		if i > 0 {
			st.close()
			if st, err = inst.fresh(); err != nil {
				return nil, nil, err
			}
		}
		switch {
		case i == 0:
			runRound(inst, st, nil, opMakespan)
		case i%2 == 1:
			r := runRound(inst, st, nil, opMakespan)
			plain = append(plain, r.stats())
			plainLat = append(plainLat, r.latencies...)
		default:
			// One root span per operation; the file keeps the ladder's and
			// the replay's spans, which a round's worth of roots would bury.
			t := newTracer()
			traced = append(traced, runRound(inst, st, t, opMakespan).stats())
			roundSpans = len(t.spans)
		}
	}
	counts, err := workloadCounts(st)
	st.close()
	if err != nil {
		return nil, nil, err
	}
	for k, v := range counts {
		values[k] = v
	}
	sp, spTraced := summarize(plain), summarize(traced)
	values["bench.tracing_overhead_fraction"] = 1 - spTraced.throughput/sp.throughput
	values["bench.generator_late_p99_us"] = sp.latenessP99
	sort.Float64s(plainLat)
	values["bench.latency_p99_us"] = percentile(plainLat, 99)
	rep.Rounds, rep.Samples, rep.Tail = 1+2*pairs, len(plainLat), highestPercentile(len(plainLat))
	rep.Attempted, rep.Failed = sp.attempted+spTraced.attempted, sp.failed+spTraced.failed

	// 2. The ladder.
	tr := newTracer()
	e, err := newEnv(tr)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	// At least sz.ladder problems, then as many more of the replayed ones
	// as fit in two fifths of the run's time: more spans, steadier medians.
	picked := ladderProblems(inst, cfg.sz.rootSample)
	until := time.Now().Add(time.Duration(0.4 * cfg.seconds * float64(time.Second)))
	for n, idx := range picked {
		if n >= cfg.sz.ladder && (cfg.maxRounds > 0 || time.Now().After(until)) {
			picked = picked[:n]
			break
		}
		if err := e.ladder(idx, inst.probs[idx]); err != nil {
			return nil, nil, fmt.Errorf("%s: ladder, problem %d: %w", name, idx, err)
		}
	}
	for metric, span := range map[string]string{
		"sharding.decompose_us": spDecompose, "mesh.topology_build_us": spTopoBuild, "mesh.fingerprint_us": spFingerprint,
		"schedule.ensemble_us": spEnsemble, "schedule.dfs_us": spDFS, "schedule.greedy_ensemble_us": spGreedy,
		"resharding.plan_build_us": spPlanBuild, "resharding.cache_key_us": spCacheKey,
		"resharding.warm_identity_us": spWarmIdentity, "resharding.warm_search_us": spWarmSearch, "resharding.cold_replan_us": spColdReplan,
		"netsim.simulate_us": spSimulate, "netsim.simulate_traced_us": spSimTraced,
		"service.parse_key_us": spParseKey, "service.handler_hit_json_us": spHitJSON, "service.handler_hit_binary_us": spHitBinary,
		"service.handler_miss_us": spMiss, "service.install_encode_us": spInstall, "service.frame_decode_us": spFrameDecode,
		"service.client_roundtrip_hit_us": spRoundTrip, "cluster.fetch_us": spFetch, "cluster.verify_fill_us": spVerifyFill,
	} {
		values[metric] = e.spanMedian(span, perUs)
	}
	values["mesh.fault_overlay_us"] = median(e.overlayUs)
	values["service.parse_key_memo_ns"] = e.spanMedian(spParseMemo, perNs)
	values["resharding.cache_lookup_ns"] = e.spanMedian(spLookup, perNs)
	values["cluster.ring_owner_ns"] = e.spanMedian(spRingOwner, perNs)
	values["resharding.plan_build_self_us"] = e.derived(perUs, minus(spPlanBuild, spEnsemble))
	values["resharding.cache_fill_self_us"] = e.derived(perUs, minus(spCacheFill, spPlanBuild, spSimulate))
	values["service.handler_miss_self_us"] = e.derived(perUs, minus(spMiss, spParseKey, spPlanBuild, spSimulate))
	values["service.transport_overhead_us"] = e.derived(perUs, minus(spRoundTrip, spHitJSON))
	values["cluster.proxy_overhead_us"] = e.derived(perUs, minus(spFetch, spMiss))
	values["sharding.units_per_task"] = median(e.units)
	values["netsim.ops_per_sim"] = median(e.simOps)
	values["schedule.lower_bound_gap"] = median(e.gaps)
	values["service.response_bytes_json"] = median(e.jsonBytes)
	values["service.response_bytes_binary"] = median(e.binBytes)
	values["resharding.warm_accept_fraction"] = float64(e.warmServed) / float64(max(e.warmTried, 1))

	// 3. The replay, then the probes no workload reaches.
	unexplained, paths, err := e.replay(inst, cfg.sz.rootSample)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	values["bench.unexplained_fraction"] = unexplained
	fixed, err := e.fixedProbes(inst.probs[0], cfg.outDir, e.tier.nodes[0])
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	for k, v := range fixed {
		values[k] = v
	}

	var missing []string
	if rep.Metrics, missing = metricSet(perLayerSpecs, values); len(missing) > 0 {
		return nil, nil, fmt.Errorf("%s: per-layer metrics not measured: %v", name, missing)
	}
	if rep.Failed > 0 {
		rep.Correct = false
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d operations failed", rep.Failed, rep.Attempted))
	}
	traceCounts := map[string]float64{"ladder_problems": float64(len(picked))}
	for class, n := range paths {
		traceCounts["path."+class] = float64(n)
	}
	for k, v := range counts {
		traceCounts[k] = v
	}
	traceCounts["round_root_spans_dropped"] = float64(roundSpans)
	return rep, &traceFile{Workload: name, Seed: cfg.seed, Counts: traceCounts, Spans: withSelfTimes(tr.spans)}, nil
}
