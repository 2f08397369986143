package service

import (
	"fmt"
	"strings"

	"alpacomm/internal/mesh"
	"alpacomm/internal/resharding"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// TopologyRef names a hardware topology by registry preset plus parameters.
type TopologyRef struct {
	// Name is a registry preset: "p3", "dgx-a100" (alias "dgx"), "mixed".
	Name string `json:"name"`
	// Hosts is the host count; 0 means the preset's default.
	Hosts int `json:"hosts,omitempty"`
	// Oversubscription is the fabric oversubscription of the "mixed"
	// preset; 0 means 1:1. "p3" and "dgx-a100" ignore it (1:1 fabrics).
	Oversubscription float64 `json:"oversubscription,omitempty"`
}

// LinkFaultRef is one inter-host link degradation over the wire; see
// mesh.LinkFault. Exactly one form is valid per link: down, or scaled
// (bandwidth_scale in (0,1] and/or extra_latency_seconds > 0).
type LinkFaultRef struct {
	A                   int     `json:"a"`
	B                   int     `json:"b"`
	Down                bool    `json:"down,omitempty"`
	BandwidthScale      float64 `json:"bandwidth_scale,omitempty"`
	ExtraLatencySeconds float64 `json:"extra_latency_seconds,omitempty"`
}

// HostFaultRef is one straggler host over the wire; see mesh.HostFault.
type HostFaultRef struct {
	Host       int     `json:"host"`
	NICScale   float64 `json:"nic_scale,omitempty"`
	IntraScale float64 `json:"intra_scale,omitempty"`
}

// FaultsRef is the optional degradation overlay of a request: a named
// scenario from the registry ("link-down", "brownout", "straggler"),
// explicit link and host faults, or both (the scenario's faults come
// first; duplicates are rejected). The topology the request planned
// against becomes mesh.Faulted over the named preset, so the response's
// cache key — and the server's plan cache — partition degraded plans
// away from healthy ones. An entirely empty block degrades nothing.
// Malformed fault specs fail with code invalid_argument.
type FaultsRef struct {
	Scenario string         `json:"scenario,omitempty"`
	Links    []LinkFaultRef `json:"links,omitempty"`
	Hosts    []HostFaultRef `json:"hosts,omitempty"`
}

// Endpoint is one side of a resharding: a mesh slice plus a sharding spec.
type Endpoint struct {
	// Mesh is the device mesh as ROWSxCOLS@FIRSTDEV (n-dimensional:
	// "2x4@0", "2x2x2@8").
	Mesh string `json:"mesh"`
	// Spec is the sharding spec in the paper's notation ("S01R", "RS0").
	Spec string `json:"spec"`
}

// PlanOptions mirror resharding.Options over the wire. Empty strategy and
// scheduler mean the service defaults (broadcast + ensemble), and zero
// counts the package defaults of resharding.Options.WithDefaults — a DFS
// node budget of resharding.DefaultDFSNodes among them — so identical
// requests get identical plans regardless of server machine speed or load,
// and the same plans as the library given the same options.
type PlanOptions struct {
	Strategy  string `json:"strategy,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Chunks    int    `json:"chunks,omitempty"`
	DFSNodes  int    `json:"dfs_nodes,omitempty"`
	Trials    int    `json:"trials,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// Quality states what the client accepts under SLO admission control:
	// "" or "auto" accepts a degraded (search-free) plan when the server
	// is defending its p99 budget; "full" insists on full-quality planning
	// — such a request is served full quality or shed, never degraded. It
	// does not affect the plan or cache key of a full-quality response.
	Quality string `json:"quality,omitempty"`
}

// PlanRequest asks for one cross-mesh resharding plan.
type PlanRequest struct {
	Topology TopologyRef `json:"topology"`
	// Shape is the global tensor shape.
	Shape []int `json:"shape"`
	// DType is "fp16"/"fp32"/"fp64" (aliases float16/32/64); empty = fp32.
	DType   string      `json:"dtype,omitempty"`
	Src     Endpoint    `json:"src"`
	Dst     Endpoint    `json:"dst"`
	Options PlanOptions `json:"options"`
	// Faults overlays a degradation on the topology.
	Faults *FaultsRef `json:"faults,omitempty"`
}

// PlanResponse reports one planned-and-simulated resharding. Senders are
// always expressed in the requesting task's device space: when the plan
// was first computed for a congruent boundary on different hosts (a
// translated cache hit, see resharding.PlanCache), the server remaps the
// cached senders through the meshes' logical-position correspondence
// before responding.
type PlanResponse struct {
	Strategy  string `json:"strategy"`
	Scheduler string `json:"scheduler"`
	// NumUnits is the unit-task count of the decomposition.
	NumUnits int `json:"num_units"`
	// Senders[i] is the chosen sender device of unit task i.
	Senders []int `json:"senders"`
	// Order lists unit-task indices in launch order.
	Order           []int   `json:"order"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	EffectiveGbps   float64 `json:"effective_gbps"`
	NumOps          int     `json:"num_ops"`
	// Key is the canonical cache key of the problem, for client-side
	// dedup accounting.
	Key string `json:"key"`
	// Degraded reports that the plan was computed with the search-free
	// degraded scheduler — the SLO admission controller traded plan
	// quality for latency (or the client asked for "greedy-degraded"
	// outright). Degraded plans live under their own cache keys.
	// Declared before Coalesced so it lands inside the pre-serialized
	// jsonTail slice; appendJSON patches Coalesced after it.
	Degraded bool `json:"degraded,omitempty"`
	// Coalesced reports that this response was shared from another
	// client's identical in-flight request rather than computed (or looked
	// up) for this one.
	Coalesced bool `json:"coalesced,omitempty"`
}

// AutotuneRequest asks for a strategy x scheduler grid search over one
// resharding. Options.Strategy/Scheduler seed the base options; the grid
// overrides them per candidate.
type AutotuneRequest struct {
	Topology TopologyRef `json:"topology"`
	Shape    []int       `json:"shape"`
	DType    string      `json:"dtype,omitempty"`
	Src      Endpoint    `json:"src"`
	Dst      Endpoint    `json:"dst"`
	Options  PlanOptions `json:"options"`
	// Workers bounds the per-request autotune concurrency; 0 = GOMAXPROCS.
	// The winner is identical for every worker count.
	Workers int `json:"workers,omitempty"`
	// Faults overlays a degradation on the topology.
	Faults *FaultsRef `json:"faults,omitempty"`
}

// AutotuneTrial is one candidate's outcome over the wire.
type AutotuneTrial struct {
	Candidate       string  `json:"candidate"`
	MakespanSeconds float64 `json:"makespan_seconds,omitempty"`
	EffectiveGbps   float64 `json:"effective_gbps,omitempty"`
	Err             string  `json:"err,omitempty"`
}

// AutotuneResponse reports the grid search outcome.
type AutotuneResponse struct {
	Winner          string          `json:"winner"`
	BestIndex       int             `json:"best_index"`
	MakespanSeconds float64         `json:"makespan_seconds"`
	EffectiveGbps   float64         `json:"effective_gbps"`
	Trials          []AutotuneTrial `json:"trials"`
	Coalesced       bool            `json:"coalesced,omitempty"`
}

// CacheStats mirrors resharding.CacheStats over the wire.
type CacheStats struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Entries   int `json:"entries"`
	Evictions int `json:"evictions"`
	Capacity  int `json:"capacity"`
}

// EndpointStats are one endpoint's admission and outcome counters.
type EndpointStats struct {
	// Requests is the number of requests admitted to parsing (including
	// ones later rejected or failed).
	Requests int64 `json:"requests"`
	// OK is the number of 200 responses.
	OK int64 `json:"ok"`
	// Errors is the number of 4xx/5xx responses other than 429.
	Errors int64 `json:"errors"`
	// Rejected is the number of 429 responses (admission queue full).
	Rejected int64 `json:"rejected"`
	// Coalesced is the number of responses shared from another client's
	// identical in-flight request.
	Coalesced int64 `json:"coalesced"`
	// InFlight is the number of requests the endpoint is currently
	// processing: waiting in the admission queue, holding a worker slot,
	// or coalesced onto another request's in-flight computation.
	InFlight int64 `json:"in_flight"`
	// MissesProven / MissesSearched (plan block only, batch items included)
	// split the misses planned here: closed-form proven, or searched.
	MissesProven   int64 `json:"misses_proven,omitempty"`
	MissesSearched int64 `json:"misses_searched,omitempty"`
	// Decoded (plan block only) counts /v2/plan requests that ran the JSON
	// decoder; the rest — 1 - decoded/requests — were recognized by their
	// body bytes and served from the cache without decoding.
	Decoded int64 `json:"decoded,omitempty"`
}

// StatsResponse is the /v2/stats payload. Cache is the plan cache shared
// by /v2/plan and /v2/plan:batch; AutotuneCache is the separate
// cache holding grid-search candidate plans; Batch counts /v2/plan:batch
// requests (one request may carry many items).
type StatsResponse struct {
	Cache         CacheStats    `json:"cache"`
	AutotuneCache CacheStats    `json:"autotune_cache"`
	Plan          EndpointStats `json:"plan"`
	Autotune      EndpointStats `json:"autotune"`
	Batch         EndpointStats `json:"batch"`
	Topologies    []string      `json:"topologies"`
	// Replan is always zero: a faulted miss is a cold plan of its own
	// request, counted under Cache and Plan like any other. The block stays
	// only because bench/'s layer ladder reads it, until ROADMAP 7(a) drops
	// that probe.
	Replan resharding.ReplanStats `json:"replan"`
	// Exits counts the ensemble plans this server computed by how the
	// ensemble ended.
	Exits ExitStats `json:"exits"`
	// Cluster is the per-node tier block — identity, ring share, miss and
	// snapshot counters; nil on a standalone server.
	Cluster *ClusterNodeStats `json:"cluster,omitempty"`
	// Admission is the SLO admission controller's block — mode, windowed
	// p99 estimate, transition counters; nil when SLO admission is off.
	Admission *AdmissionStats `json:"admission,omitempty"`
}

// ExitStats count the ensemble plans a server computed — misses finished
// here, not hits, not installed plans — by the candidate each
// plan came from (resharding.Plan.Report): Naive, LoadBalanceOnly, the
// witness, the target search, GreedyRandomized or the improvement DFS.
// Unproven counts those that ended above the makespan floor; TargetNodes,
// DFSNodes and GreedyTrials sum what their searches spent.
type ExitStats struct {
	Naive        int64 `json:"naive"`
	LPT          int64 `json:"lpt"`
	Witness      int64 `json:"witness"`
	Target       int64 `json:"target"`
	Greedy       int64 `json:"greedy"`
	DFS          int64 `json:"dfs"`
	Unproven     int64 `json:"unproven"`
	TargetNodes  int64 `json:"target_nodes"`
	DFSNodes     int64 `json:"dfs_nodes"`
	GreedyTrials int64 `json:"greedy_trials"`
}

// MaxFaultEntries bounds one request's explicit fault list: like every
// client-supplied parameter, the overlay must not scale server work
// unboundedly (validation and detour precomputation are per-fault).
const MaxFaultEntries = 256

// resolveFaults applies a request's faults block to a built topology:
// the named scenario's faults (if any) plus the explicit lists, validated
// together by mesh.NewFaulted. An empty block returns the base untouched,
// so sending "faults": {} is byte-identical to omitting it.
func resolveFaults(reg *mesh.Registry, topo mesh.Topology, fr *FaultsRef) (mesh.Topology, error) {
	if fr == nil {
		return topo, nil
	}
	if len(fr.Links)+len(fr.Hosts) > MaxFaultEntries {
		return nil, fmt.Errorf("faults block has %d entries, server bound is %d", len(fr.Links)+len(fr.Hosts), MaxFaultEntries)
	}
	var fs mesh.FaultSet
	if fr.Scenario != "" {
		var err error
		if fs, err = reg.BuildFaultScenario(fr.Scenario, topo); err != nil {
			return nil, err
		}
	}
	for _, l := range fr.Links {
		fs.Links = append(fs.Links, mesh.LinkFault{
			A: l.A, B: l.B, Down: l.Down,
			BandwidthScale: l.BandwidthScale, ExtraLatency: l.ExtraLatencySeconds,
		})
	}
	for _, h := range fr.Hosts {
		fs.Hosts = append(fs.Hosts, mesh.HostFault{
			Host: h.Host, NICScale: h.NICScale, IntraScale: h.IntraScale,
		})
	}
	if fs.Empty() {
		return topo, nil
	}
	return mesh.NewFaulted(topo, fs)
}

// buildTopology resolves the request's topology against the registry and
// applies the optional fault overlay.
func buildTopology(reg *mesh.Registry, topoCache *topologyCache, ref TopologyRef, faults *FaultsRef) (mesh.Topology, error) {
	topo, err := topoCache.get(reg, ref)
	if err != nil {
		return nil, err
	}
	if topo, err = resolveFaults(reg, topo, faults); err != nil {
		return nil, fmt.Errorf("bad faults block: %v", err)
	}
	return topo, nil
}

// buildTaskOn decomposes one resharding on an already-resolved topology
// and normalizes its options (NormalizedOptions); batch requests resolve
// their shared (topology, faults) pair once and call this per item.
func buildTaskOn(topo mesh.Topology,
	shape []int, dtype string, src, dst Endpoint, po PlanOptions) (*sharding.Task, resharding.Options, error) {

	var zero resharding.Options
	gshape, err := tensor.NewShape(shape...)
	if err != nil {
		return nil, zero, fmt.Errorf("bad shape: %v", err)
	}
	dt, err := ParseDType(dtype)
	if err != nil {
		return nil, zero, err
	}
	srcMesh, err := mesh.ParseSlice(topo, src.Mesh)
	if err != nil {
		return nil, zero, fmt.Errorf("bad src mesh: %v", err)
	}
	dstMesh, err := mesh.ParseSlice(topo, dst.Mesh)
	if err != nil {
		return nil, zero, fmt.Errorf("bad dst mesh: %v", err)
	}
	srcSpec, err := sharding.Parse(src.Spec)
	if err != nil {
		return nil, zero, fmt.Errorf("bad src spec: %v", err)
	}
	dstSpec, err := sharding.Parse(dst.Spec)
	if err != nil {
		return nil, zero, fmt.Errorf("bad dst spec: %v", err)
	}
	task, err := sharding.NewTask(gshape, dt, srcMesh, srcSpec, dstMesh, dstSpec)
	if err != nil {
		return nil, zero, err
	}
	opts, err := NormalizedOptions(po)
	if err != nil {
		return nil, zero, err
	}
	return task, opts, nil
}

// Upper bounds on client-supplied planning effort: like
// mesh.MaxRegistryHosts, every wire parameter that scales server work must
// be bounded, or one request could pin a worker slot indefinitely.
const (
	// MaxChunks bounds the broadcast pipelining depth.
	MaxChunks = 4096
	// MaxTrials bounds the randomized-greedy trial count.
	MaxTrials = 10000
	// MaxDFSNodes bounds the DFS node budget a request may ask for; a
	// request that names none gets resharding.DefaultDFSNodes.
	MaxDFSNodes = 10_000_000
)

// NormalizedOptions converts wire options into the exact planning options
// the server uses: parsed strategy/scheduler, effort bounds enforced, and
// package defaults applied.
// Verifiers comparing served plans against the direct resharding path must
// plan with these options, not hand-built ones.
func NormalizedOptions(po PlanOptions) (resharding.Options, error) {
	var opts resharding.Options
	var err error
	if opts.Strategy, err = resharding.ParseStrategy(po.Strategy); err != nil {
		return opts, err
	}
	if opts.Scheduler, err = resharding.ParseScheduler(po.Scheduler); err != nil {
		return opts, err
	}
	if po.Chunks < 0 || po.DFSNodes < 0 || po.Trials < 0 {
		return opts, fmt.Errorf("negative plan option")
	}
	switch po.Quality {
	case "", "auto", "full":
	default:
		return opts, fmt.Errorf("unknown quality %q (want auto or full)", po.Quality)
	}
	if po.Chunks > MaxChunks || po.Trials > MaxTrials || po.DFSNodes > MaxDFSNodes {
		return opts, fmt.Errorf("plan option beyond server bound (chunks <= %d, trials <= %d, dfs_nodes <= %d)",
			MaxChunks, MaxTrials, MaxDFSNodes)
	}
	opts.Chunks = po.Chunks
	opts.Trials = po.Trials
	opts.Seed = po.Seed
	opts.DFSNodes = po.DFSNodes
	return opts.WithDefaults(), nil
}

// ParseDType accepts the tensor String() names ("fp16"/"fp32"/"fp64") and
// the spelled-out aliases (float16/32/64); empty means fp32.
func ParseDType(s string) (tensor.DType, error) {
	switch strings.ToLower(s) {
	case "fp16", "float16":
		return tensor.Float16, nil
	case "", "fp32", "float32":
		return tensor.Float32, nil
	case "fp64", "float64":
		return tensor.Float64, nil
	default:
		return 0, fmt.Errorf("unknown dtype %q (want fp16, fp32 or fp64)", s)
	}
}
