// Package alpacomm is a Go reproduction of "On Optimizing the
// Communication of Model Parallelism" (MLSys 2023): a library for planning,
// simulating and executing cross-mesh resharding — the communication
// pattern that appears at pipeline-stage boundaries when intra-operator and
// inter-operator model parallelism are combined.
//
// The library has three layers:
//
//   - Resharding: describe a tensor sharded on one device mesh and required
//     under a (possibly different) sharding spec on a disjoint mesh; the
//     planner decomposes it into unit communication tasks, picks senders
//     and a launch order (load balancing + scheduling, §3.2), and carries
//     each unit task with a pipelined broadcast (§3.1). Plans can be timed
//     on a deterministic cluster network model and executed on real buffers.
//
//   - Pipeline schedules: GPipe, 1F1B and the overlapping-friendly
//     eager-1F1B (§4), with communication overlap and backward weight
//     delaying.
//
//   - End-to-end training simulation: analytic GPT and U-Transformer cost
//     models drive the pipeline simulator, with every stage boundary's
//     communication time coming from a resharding plan (§5.2).
//
// Since no GPU cluster is required, the "hardware" is a discrete-event
// model behind the pluggable Topology interface. One type, HeteroCluster,
// models every cluster: per-host device counts, NIC tiers and
// oversubscribed fabrics. The paper's testbed (NVLink intra-host, one
// 10 Gbps NIC per host, full duplex) is its case of identical hosts
// (AWSP3Cluster), beside DGX-A100/InfiniBand-class presets. Every layer —
// transfer timing, resharding planning, the pipeline harness — works
// against the interface, so new fabrics plug in without touching the
// planner.
//
// The recommended entry point for planning is the Planner session: one
// object owning the topology, caches and defaults, whose Plan / Simulate /
// Autotune / PlanBoundaries methods all take a context.Context and honor
// it end to end (grid searches abort between DFS node-budget slices,
// coalesced cache waits are cancellable). PlanReshardContext,
// AutotuneReshardContext and a hand-wired ReshardCache are the same
// operations without a session.
package alpacomm

import (
	"alpacomm/internal/cluster"
	"alpacomm/internal/intramesh"
	"alpacomm/internal/loadmodel"
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

// Cluster hardware model.
type (
	// Topology is the pluggable hardware abstraction every layer plans
	// against: hosts with devices, intra-host links, NIC tiers and an
	// inter-host fabric. HeteroCluster and FaultedTopology implement it.
	Topology = mesh.Topology
	// HeteroCluster is an accelerator cluster: per-host device counts,
	// interconnects and NIC tiers plus fabric oversubscription. The
	// paper's testbed is its case of identical one-NIC hosts.
	HeteroCluster = mesh.HeteroCluster
	// HostSpec describes one host of a heterogeneous cluster.
	HostSpec = mesh.HostSpec
	// Mesh is an n-dimensional logical device array sliced from a topology.
	Mesh = mesh.Mesh
)

// NewCluster builds a cluster of identical one-NIC hosts from explicit
// topology parameters.
var NewCluster = mesh.NewCluster

// AWSP3Cluster builds the paper's testbed: hosts x 4 V100, NVLink
// intra-host, 10 Gbps Ethernet between hosts.
var AWSP3Cluster = mesh.AWSP3Cluster

// NewHeteroCluster builds a heterogeneous cluster from per-host specs, a
// cross-host latency and a fabric oversubscription factor (>= 1).
var NewHeteroCluster = mesh.NewHeteroCluster

// DGXA100Cluster builds an InfiniBand/NVSwitch-class cluster of DGX-A100
// nodes (8 GPUs behind NVSwitch, 8 x 200 Gbps NICs per host).
var DGXA100Cluster = mesh.DGXA100Cluster

// MixedP3DGXCluster mixes p3-style Ethernet hosts with DGX-A100-style
// InfiniBand hosts on one fabric with the given oversubscription.
var MixedP3DGXCluster = mesh.MixedP3DGXCluster

// Host presets for building custom heterogeneous clusters.
var (
	P3HostSpec      = mesh.P3HostSpec
	DGXA100HostSpec = mesh.DGXA100HostSpec
)

// Degraded-topology scenario engine: deterministic fault overlays on any
// topology (down links with detour rerouting, per-link bandwidth scaling
// and latency inflation, straggler hosts), folded into the topology
// fingerprint so healthy and degraded plans never share a cache entry.
type (
	// FaultSet is a deterministic overlay of degradations; the zero value
	// is the healthy identity.
	FaultSet = mesh.FaultSet
	// LinkFault degrades or downs one inter-host link.
	LinkFault = mesh.LinkFault
	// HostFault marks one host a straggler (NIC / intra-host scaling).
	HostFault = mesh.HostFault
	// FaultedTopology decorates a base Topology with a FaultSet; every
	// layer above sees the degraded fabric through the same interface.
	FaultedTopology = mesh.Faulted
)

// NewFaultedTopology validates a fault set against a base topology and
// builds the degraded overlay.
var NewFaultedTopology = mesh.NewFaulted

// ParseFaultSet parses the CLIs' compact fault notation, e.g.
// "link:0-1:down;host:3:nic=0.25,intra=0.5".
var ParseFaultSet = mesh.ParseFaultSet

// Named fault scenarios of the default topology registry.
const (
	FaultScenarioLinkDown  = mesh.FaultLinkDown
	FaultScenarioBrownout  = mesh.FaultBrownout
	FaultScenarioStraggler = mesh.FaultStraggler
)

// Continuous topology churn: deterministic timelines of fault arrivals and
// heals, replayed through Planner.ReplanDegraded (each step is the cold plan
// of its overlay, and a heal back to an overlay already planned is a cache
// hit) or served live via /v2/plan.
type (
	// ChurnTimeline is a deterministic schedule of fault-overlay changes;
	// each step's FaultSet is the complete overlay active from that
	// instant (empty = healed).
	ChurnTimeline = mesh.ChurnTimeline
	// ChurnStep is one timeline entry: an arrival time and the overlay
	// active from it.
	ChurnStep = mesh.ChurnStep
)

// ParseChurnTimeline parses the CLIs' timeline notation, e.g.
// "@0 link:0-1:down | @500ms | @1s host:1:nic=0.25" — steps separated by
// "|", each "@<duration> <fault spec>", an empty spec meaning healed.
var ParseChurnTimeline = mesh.ParseChurnTimeline

// Named churn scenarios of the default topology registry.
const (
	ChurnScenarioFlap             = mesh.ChurnFlap
	ChurnScenarioCascade          = mesh.ChurnCascade
	ChurnScenarioBrownoutRecovery = mesh.ChurnBrownoutRecovery
)

// Named topology presets.
type (
	// TopologyRegistry maps preset names ("p3", "dgx-a100", "mixed") to
	// topology builders, for command lines and the plan-serving API.
	TopologyRegistry = mesh.Registry
	// TopologyParams parameterize a named preset (host count, fabric
	// oversubscription).
	TopologyParams = mesh.TopologyParams
)

// NewTopologyRegistry returns an empty registry.
var NewTopologyRegistry = mesh.NewRegistry

// DefaultTopologyRegistry returns the built-in presets: "p3",
// "dgx-a100" (alias "dgx") and "mixed".
var DefaultTopologyRegistry = mesh.DefaultRegistry

// Tensors and sharding specs.
type (
	// Shape is an N-dimensional tensor shape.
	Shape = tensor.Shape
	// DType is a tensor element type.
	DType = tensor.DType
	// Spec is a sharding spec in the paper's S/R notation.
	Spec = sharding.Spec
	// Placement binds a spec to a mesh and tensor shape.
	Placement = sharding.Placement
	// ReshardTask is a decomposed cross-mesh resharding task.
	ReshardTask = sharding.Task
	// UnitTask is one unit communication task (one data slice).
	UnitTask = sharding.UnitTask
	// Buffer is a device-resident fragment of a global tensor.
	Buffer = tensor.Buffer
)

// Element types.
const (
	Float16 = tensor.Float16
	Float32 = tensor.Float32
	Float64 = tensor.Float64
)

// NewShape validates and builds a Shape.
var NewShape = tensor.NewShape

// ParseSpec parses the paper's spec notation ("S0RR", "RS01R", ...).
var ParseSpec = sharding.Parse

// NewReshardTask decomposes a cross-mesh resharding into unit tasks
// (Appendix B.2).
var NewReshardTask = sharding.NewTask

// Resharding planner.
type (
	// ReshardOptions selects strategy and scheduler.
	ReshardOptions = resharding.Options
	// ReshardPlan is a scheduled resharding ready to simulate or execute.
	ReshardPlan = resharding.Plan
	// ReshardResult reports simulated timing.
	ReshardResult = resharding.SimResult
	// Strategy is a §3.1 unit-task communication strategy.
	Strategy = resharding.Strategy
	// SchedulerKind is a §3.2 load-balance/ordering algorithm.
	SchedulerKind = resharding.Scheduler
)

// Strategies (§3.1).
const (
	StrategySendRecv        = resharding.SendRecv
	StrategyLocalAllGather  = resharding.LocalAllGather
	StrategyGlobalAllGather = resharding.GlobalAllGather
	StrategyBroadcast       = resharding.Broadcast
	StrategyAlpa            = resharding.Alpa
	StrategySignal          = resharding.Signal
)

// Schedulers (§3.2).
const (
	SchedulerNaive           = resharding.SchedNaive
	SchedulerGreedyLoad      = resharding.SchedGreedyLoad
	SchedulerLoadBalanceOnly = resharding.SchedLoadBalanceOnly
	SchedulerEnsemble        = resharding.SchedEnsemble
)

// PlanReshard schedules a resharding task: load balancing and ordering of
// its unit tasks per the chosen scheduler. Prefer a Planner session (which
// also caches and threads cancellation); for a one-off cancellable plan
// use PlanReshardContext.
var PlanReshard = resharding.NewPlan

// PlanReshardContext is PlanReshard with cooperative cancellation polled
// between the ensemble DFS's node-budget slices.
var PlanReshardContext = resharding.NewPlanContext

// Concurrent plan autotuning and cross-boundary plan caching.
type (
	// AutotuneOptions configures the strategy x scheduler grid search.
	AutotuneOptions = resharding.AutotuneOptions
	// AutotuneCandidate is one grid point.
	AutotuneCandidate = resharding.AutotuneCandidate
	// AutotuneResult reports the winner and every trial.
	AutotuneResult = resharding.AutotuneResult
	// AutotuneTrial is one candidate's outcome.
	AutotuneTrial = resharding.AutotuneTrial
	// ReshardCache memoizes plans across structurally identical
	// reshardings (e.g. the congruent stage boundaries of a pipeline).
	ReshardCache = resharding.PlanCache
	// ReshardCacheStats reports cache hit/miss counters.
	ReshardCacheStats = resharding.CacheStats
)

// AutotuneReshardContext searches the strategy x scheduler grid
// concurrently for the fastest plan of one resharding task; deterministic
// under a fixed seed regardless of worker count. The context is checked
// between candidates and polled inside each candidate's DFS between
// node-budget slices, so a deadline or disconnect aborts the search.
var AutotuneReshardContext = resharding.AutotuneContext

// DefaultAutotuneGrid returns the full strategy x scheduler candidate grid.
var DefaultAutotuneGrid = resharding.DefaultAutotuneGrid

// NewReshardCache creates an empty plan cache to share across boundaries,
// jobs and autotuning runs.
var NewReshardCache = resharding.NewPlanCache

// NewLRUReshardCache creates a plan cache bounded to the given entry count
// with least-recently-used eviction (capacity <= 0 means unbounded), so
// memory stays flat under millions of distinct reshardings.
var NewLRUReshardCache = resharding.NewLRUPlanCache

// Plan-serving subsystem: the resharding planner as a concurrent HTTP
// service with request coalescing, a bounded LRU cache and admission
// control (internal/service; cmd/planserver and cmd/loadgen are the
// daemon and its load generator).
type (
	// PlanServer is the plan-serving HTTP handler.
	PlanServer = service.Server
	// PlanServerConfig configures a PlanServer.
	PlanServerConfig = service.Config
	// PlanClient talks to a plan server.
	PlanClient = service.Client
	// PlanServiceRequest asks a server for one resharding plan.
	PlanServiceRequest = service.PlanRequest
	// PlanServiceResponse is one planned-and-simulated resharding.
	PlanServiceResponse = service.PlanResponse
	// AutotuneServiceRequest asks a server for a grid search.
	AutotuneServiceRequest = service.AutotuneRequest
	// AutotuneServiceResponse is a grid search outcome.
	AutotuneServiceResponse = service.AutotuneResponse
	// BatchPlanServiceRequest asks /v2/plan:batch for every stage boundary
	// of a pipeline job in one request.
	BatchPlanServiceRequest = service.BatchPlanRequest
	// BatchPlanServiceItem is one boundary of a batch request.
	BatchPlanServiceItem = service.BatchPlanItem
	// BatchPlanServiceResponse reports a batch in request order.
	BatchPlanServiceResponse = service.BatchPlanResponse
	// PlanServiceError is the structured /v2 error payload.
	PlanServiceError = service.V2Error
	// ServiceTopologyRef names a topology preset in a service request.
	ServiceTopologyRef = service.TopologyRef
	// ServiceEndpoint is one side of a served resharding.
	ServiceEndpoint = service.Endpoint
	// ServiceStats is the /v2/stats payload.
	ServiceStats = service.StatsResponse
)

// DefaultPlanCacheCapacity is the served plan cache's default LRU bound.
const DefaultPlanCacheCapacity = service.DefaultCacheCapacity

// NewPlanServer builds the plan-serving HTTP handler.
var NewPlanServer = service.New

// NewPlanClient builds a client for a plan server base URL.
var NewPlanClient = service.NewClient

// PlanClientOption configures NewPlanClient.
type PlanClientOption = service.ClientOption

// WithBinaryWire makes a plan client negotiate the binary wire format
// (PlanWireContentType); safe against servers that only speak JSON.
var WithBinaryWire = service.WithBinary

// PlanWireContentType is the media type of the binary plan wire format.
const PlanWireContentType = service.ContentTypeBinary

// SLO-aware admission (internal/service): a sliding-window latency and
// plan-pool occupancy controller that degrades /v2 planning to a greedy
// single-pass schedule under pressure and sheds load outright past the
// budget, recovering with hysteresis.
type (
	// ServiceSLOConfig enables the admission controller on a PlanServer
	// (PlanServerConfig.SLO). The p99 budget is its only setting: the
	// window, dwell and thresholds are constants, and the load it reads
	// is the server's own plan pool.
	ServiceSLOConfig = service.SLOConfig
	// ServiceAdmissionMode is the controller's decision for one request:
	// full, degraded or shed.
	ServiceAdmissionMode = service.AdmissionMode
	// ServiceAdmissionStats is the admission block of /v2/stats.
	ServiceAdmissionStats = service.AdmissionStats
)

// PlanAdmissionHeader is the /v2 response header naming the admission
// mode that produced the response ("degraded" or "shed").
const PlanAdmissionHeader = service.AdmissionHeader

// Open-loop load modeling (internal/loadmodel): seeded arrival processes
// for distribution-driven load generation (cmd/loadgen -arrivals).
type (
	// ArrivalProcess emits successive interarrival gaps.
	ArrivalProcess = loadmodel.Process
	// BurstyArrivalConfig shapes a two-state (base/burst) MMPP.
	BurstyArrivalConfig = loadmodel.BurstyConfig
	// DiurnalArrivalConfig shapes a sinusoidal rate curve.
	DiurnalArrivalConfig = loadmodel.DiurnalConfig
)

// NewPoissonArrivals builds a seeded open-loop Poisson process.
var NewPoissonArrivals = loadmodel.NewPoisson

// NewBurstyArrivals builds a seeded two-state bursty process.
var NewBurstyArrivals = loadmodel.NewBursty

// NewDiurnalArrivals builds a seeded sinusoidal-rate process.
var NewDiurnalArrivals = loadmodel.NewDiurnal

// DeriveAgentSeed maps (base seed, agent index) to a statistically
// independent per-agent stream seed; the mapping is pinned forever.
var DeriveAgentSeed = loadmodel.DeriveSeed

// ArrivalOffsets materializes a process into intended-start offsets
// within a horizon.
var ArrivalOffsets = loadmodel.Offsets

// Distributed plan-serving tier (internal/cluster): N plan servers as one
// tier — consistent-hash key ownership for client routing, snapshot warm
// restarts. A node's membership is its configuration; every node plans its
// own misses.
type (
	// ClusterNode makes one PlanServer a member of a plan-serving tier.
	ClusterNode = cluster.Node
	// ClusterNodeConfig configures a tier node.
	ClusterNodeConfig = cluster.Config
	// ClusterRing is the consistent-hash ring clients route on.
	ClusterRing = cluster.Ring
	// ClusterNodeStats is the per-node tier block of ServiceStats.
	ClusterNodeStats = service.ClusterNodeStats
	// ClusterSnapshotStats reports one snapshot or warm-restore pass.
	ClusterSnapshotStats = cluster.SnapshotStats
)

// NewClusterNode builds a tier node around a plan server and installs it
// as the server's router.
var NewClusterNode = cluster.New

// NewClusterRing builds an empty consistent-hash ring with
// cluster.DefaultVNodes virtual nodes per member.
var NewClusterRing = cluster.NewRing

// Pipeline schedules (§4).
type (
	// PipelineConfig describes one pipeline-parallel iteration.
	PipelineConfig = pipeline.Config
	// PipelineResult reports a simulated iteration.
	PipelineResult = pipeline.Result
	// PipelineKind is a schedule family.
	PipelineKind = pipeline.Kind
)

const (
	ScheduleGPipe     = pipeline.GPipe
	Schedule1F1B      = pipeline.OneFOneB
	ScheduleEager1F1B = pipeline.Eager1F1B
)

// SimulatePipeline times one iteration of a pipeline schedule.
var SimulatePipeline = pipeline.Simulate

// Models and parallel configs (§5.2).
type (
	// Workload is a pipeline-partitioned model with boundary tensors.
	Workload = model.Workload
	// ParallelConfig is the (dp, op, pp) triple of Table 3.
	ParallelConfig = model.ParallelConfig
	// DeviceSpec models accelerator throughput.
	DeviceSpec = model.DeviceSpec
	// GPTConfig is a GPT-3-style transformer.
	GPTConfig = model.GPTConfig
	// UTransConfig is a U-Transformer.
	UTransConfig = model.UTransConfig
)

// Model presets from Table 3.
var (
	GPT1_3B    = model.GPT1_3B
	GPT2_6B    = model.GPT2_6B
	UTrans1B   = model.UTrans1B
	UTrans2_1B = model.UTrans2_1B
	V100       = model.V100
	V100Conv   = model.V100Conv
)

// Workload constructors.
var (
	NewGPTWorkload    = model.NewGPTWorkload
	NewUTransWorkload = model.NewUTransWorkload
)

// Low-level building blocks, exposed for extension.
type (
	// Sim is the deterministic discrete-event engine.
	Sim = netsim.Sim
	// ClusterNet issues topology-aware transfers on a Sim.
	ClusterNet = netsim.ClusterNet
	// NetResourceID is a typed handle to one serial resource of a Sim.
	NetResourceID = netsim.ResourceID
	// NetLabel is a lazily rendered op label.
	NetLabel = netsim.Label
	// NetEvent is one scheduled op of a completed run.
	NetEvent = netsim.Event
	// ReshardPlanBuilder is a reusable (poolable) plan-simulation context.
	ReshardPlanBuilder = resharding.PlanBuilder
	// HostTask is one Eq. 1-3 host-level task.
	HostTask = schedule.Task
	// HostPlan is an Eq. 1-3 solution.
	HostPlan = schedule.Plan
)

// NewSim creates an empty discrete-event simulator.
var NewSim = netsim.NewSim

// NewClusterNet creates a simulator bound to a cluster topology.
var NewClusterNet = netsim.NewClusterNet

// PlainLabel wraps a fixed string as a lazily rendered op label — the thin
// string shim over the tuple-based Label API.
var PlainLabel = netsim.Plain

// AcquireReshardPlanBuilder takes a reusable simulation context from the
// shared pool; Release it when done. Plan.Simulate pools automatically —
// hold a builder explicitly only when simulating many plans on one
// goroutine.
var AcquireReshardPlanBuilder = resharding.AcquirePlanBuilder

// Intra-mesh layout conversion (§2.1 background): resharding a tensor
// between two specs on the same mesh, served by collective communication.
type (
	// IntraMeshTask is a planned layout conversion within one mesh.
	IntraMeshTask = intramesh.Task
	// IntraMeshMove is one required data movement of a conversion.
	IntraMeshMove = intramesh.Move
)

// NewIntraMeshTask decomposes an intra-mesh layout conversion.
var NewIntraMeshTask = intramesh.NewTask
