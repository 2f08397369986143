package mesh

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MaxRegistryHosts bounds the host count a registry build accepts: preset
// topologies allocate per-host state, and the registry fronts
// client-supplied parameters (command lines, the plan-serving API), so an
// absurd count must fail before it allocates.
const MaxRegistryHosts = 4096

// TopologyParams parameterize a named topology preset. The zero value asks
// the preset for its defaults.
type TopologyParams struct {
	// Hosts is the host count; 0 means the preset's default.
	Hosts int
	// Oversubscription is the fabric oversubscription factor for presets
	// with a shared switch fabric; 0 means non-oversubscribed (1:1).
	Oversubscription float64
}

// TopologyBuilder constructs a topology from parameters.
type TopologyBuilder func(p TopologyParams) (Topology, error)

// FaultScenarioBuilder constructs a named fault overlay for a concrete
// topology — scenarios are parameterized by the hardware they degrade
// (which link exists, which host is last) rather than being fixed lists.
type FaultScenarioBuilder func(t Topology) (FaultSet, error)

// Registry maps preset names to topology builders, so callers — command
// lines, config files, and the plan-serving API — can name hardware
// ("p3", "dgx-a100", "mixed") instead of constructing it. It also maps
// fault-scenario names ("link-down", "brownout", "straggler") to fault
// overlays and churn-scenario names to timelines, so the same callers can
// name degradations. A Registry is safe for concurrent use; its zero value
// is an empty registry.
type Registry struct {
	builders nameTable[TopologyBuilder]
	faults   nameTable[FaultScenarioBuilder]
	churns   nameTable[ChurnScenarioBuilder]
}

// ChurnScenarioBuilder constructs a named churn timeline for a concrete
// topology — like fault scenarios, timelines are parameterized by the
// hardware they degrade rather than being fixed lists.
type ChurnScenarioBuilder func(t Topology) (ChurnTimeline, error)

// nameTable is one of a Registry's name -> builder tables: names are
// case-insensitive, registered once and listed sorted. The zero value is
// an empty table.
type nameTable[B TopologyBuilder | FaultScenarioBuilder | ChurnScenarioBuilder] struct {
	mu sync.RWMutex
	m  map[string]B
}

// add registers b under name; kind names the table and builder its
// builders in the error texts.
func (t *nameTable[B]) add(kind, builder, name string, b B) error {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return fmt.Errorf("mesh: registry: empty %s name", kind)
	}
	if b == nil {
		return fmt.Errorf("mesh: registry: nil %s for %q", builder, name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[name]; ok {
		return fmt.Errorf("mesh: registry: %s %q already registered", kind, name)
	}
	if t.m == nil {
		t.m = map[string]B{}
	}
	t.m[name] = b
	return nil
}

// get returns the builder registered under name; an unknown name's error
// lists the registered ones.
func (t *nameTable[B]) get(kind, name string) (B, error) {
	t.mu.RLock()
	b, ok := t.m[strings.ToLower(strings.TrimSpace(name))]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mesh: unknown %s %q (have %s)", kind, name, strings.Join(t.names(), ", "))
	}
	return b, nil
}

// names returns the registered names, sorted.
func (t *nameTable[B]) names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.m))
	for n := range t.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a named builder. Names are case-insensitive. Registering
// an empty name, a nil builder, or a duplicate name is an error.
func (r *Registry) Register(name string, b TopologyBuilder) error {
	return r.builders.add("topology", "builder", name, b)
}

// Build constructs the named topology. Unknown names report the available
// presets.
func (r *Registry) Build(name string, p TopologyParams) (Topology, error) {
	b, err := r.builders.get("topology", name)
	if err != nil {
		return nil, err
	}
	if p.Hosts < 0 {
		return nil, fmt.Errorf("mesh: negative host count %d", p.Hosts)
	}
	if p.Hosts > MaxRegistryHosts {
		return nil, fmt.Errorf("mesh: host count %d exceeds the registry bound %d", p.Hosts, MaxRegistryHosts)
	}
	if p.Oversubscription < 0 {
		return nil, fmt.Errorf("mesh: negative oversubscription %g", p.Oversubscription)
	}
	return b(p)
}

// Names returns the registered preset names, sorted.
func (r *Registry) Names() []string { return r.builders.names() }

// RegisterFaultScenario adds a named fault-scenario builder. Names are
// case-insensitive; empty names, nil builders and duplicates are errors.
func (r *Registry) RegisterFaultScenario(name string, b FaultScenarioBuilder) error {
	return r.faults.add("fault scenario", "fault scenario builder", name, b)
}

// BuildFaultScenario constructs the named fault overlay for a concrete
// topology. Unknown names report the available scenarios.
func (r *Registry) BuildFaultScenario(name string, t Topology) (FaultSet, error) {
	b, err := r.faults.get("fault scenario", name)
	if err != nil {
		return FaultSet{}, err
	}
	if t == nil {
		return FaultSet{}, fmt.Errorf("mesh: fault scenario %q needs a topology", name)
	}
	return b(t)
}

// FaultScenarioNames returns the registered scenario names, sorted.
func (r *Registry) FaultScenarioNames() []string { return r.faults.names() }

// RegisterChurnScenario adds a named churn-timeline builder. Names are
// case-insensitive; empty names, nil builders and duplicates are errors.
func (r *Registry) RegisterChurnScenario(name string, b ChurnScenarioBuilder) error {
	return r.churns.add("churn scenario", "churn scenario builder", name, b)
}

// BuildChurnScenario constructs the named churn timeline for a concrete
// topology and validates every step's overlay against it. Unknown names
// report the available scenarios.
func (r *Registry) BuildChurnScenario(name string, t Topology) (ChurnTimeline, error) {
	b, err := r.churns.get("churn scenario", name)
	if err != nil {
		return ChurnTimeline{}, err
	}
	if t == nil {
		return ChurnTimeline{}, fmt.Errorf("mesh: churn scenario %q needs a topology", name)
	}
	tl, err := b(t)
	if err != nil {
		return ChurnTimeline{}, err
	}
	return tl, tl.Validate(t)
}

// ChurnScenarioNames returns the registered churn scenario names, sorted.
func (r *Registry) ChurnScenarioNames() []string { return r.churns.names() }

// Preset names of DefaultRegistry.
const (
	// TopologyP3 is the paper's AWS p3 testbed, identical p3 hosts.
	TopologyP3 = "p3"
	// TopologyDGXA100 is a cluster of identical DGX-A100/InfiniBand hosts.
	TopologyDGXA100 = "dgx-a100"
	// TopologyMixed mixes p3 and DGX-A100 hosts on one fabric.
	TopologyMixed = "mixed"
)

// Fault scenario names of DefaultRegistry.
const (
	// FaultLinkDown downs the link between hosts 0 and 1; traffic detours
	// through the best surviving relay (needs at least 3 hosts).
	FaultLinkDown = "link-down"
	// FaultBrownout halves every inter-host link's bandwidth and adds 50%
	// to its latency — an oversubscribed spine at peak load.
	FaultBrownout = "brownout"
	// FaultStraggler makes the last host a straggler: NIC at a quarter
	// speed, intra-host links at half.
	FaultStraggler = "straggler"
)

// Churn scenario names of DefaultRegistry.
const (
	// ChurnFlap flaps the 0-1 link: down, healed, down again, healed
	// (needs at least 3 hosts for the detour). Healing back to an earlier
	// overlay revisits its identity — the cache-hit case.
	ChurnFlap = "flap"
	// ChurnCascade compounds faults: link down, then link down plus a
	// straggler, then the link heals leaving the straggler, then healthy.
	ChurnCascade = "cascade"
	// ChurnBrownoutRecovery browns out every link, partially recovers to
	// three-quarter bandwidth, then heals.
	ChurnBrownoutRecovery = "brownout-recovery"
)

// maxBrownoutHosts bounds the quadratic link-fault expansion of the
// brownout scenario; the registry fronts client-supplied host counts.
const maxBrownoutHosts = 64

// DefaultRegistry returns a fresh registry holding the built-in presets:
//
//   - "p3": the paper's testbed, hosts x 4 V100 (default 2 hosts).
//   - "dgx-a100" (alias "dgx"): DGX-A100 nodes, 8 GPUs + 8 HDR-200 NICs
//     per host (default 2 hosts).
//   - "mixed": half p3 / half DGX-A100 hosts (at least one of each,
//     default 3 hosts) with the given fabric oversubscription.
//
// Only "mixed" reads Oversubscription: "p3", "dgx-a100" and "dgx" ignore
// it (their fabrics are 1:1).
func DefaultRegistry() *Registry {
	r := NewRegistry()
	mustRegister := func(name string, b TopologyBuilder) {
		if err := r.Register(name, b); err != nil {
			panic(err)
		}
	}
	mustRegister(TopologyP3, func(p TopologyParams) (Topology, error) {
		return AWSP3Cluster(hostsOrDefault(p.Hosts, 2)), nil
	})
	dgx := func(p TopologyParams) (Topology, error) {
		return DGXA100Cluster(hostsOrDefault(p.Hosts, 2)), nil
	}
	mustRegister(TopologyDGXA100, dgx)
	mustRegister("dgx", dgx)
	mustRegister(TopologyMixed, func(p TopologyParams) (Topology, error) {
		hosts := hostsOrDefault(p.Hosts, 3)
		if hosts < 2 {
			return nil, fmt.Errorf("mesh: mixed topology needs at least 2 hosts, got %d", hosts)
		}
		oversub := p.Oversubscription
		if oversub == 0 {
			oversub = 1
		}
		if !finite(oversub) || oversub < 1 {
			return nil, fmt.Errorf("mesh: oversubscription %g is not a finite number >= 1", oversub)
		}
		p3 := hosts / 2
		return MixedP3DGXCluster(p3, hosts-p3, oversub), nil
	})
	mustRegisterFaults := func(name string, b FaultScenarioBuilder) {
		if err := r.RegisterFaultScenario(name, b); err != nil {
			panic(err)
		}
	}
	mustRegisterFaults(FaultLinkDown, func(t Topology) (FaultSet, error) {
		if t.HostCount() < 3 {
			return FaultSet{}, fmt.Errorf("mesh: %s needs at least 3 hosts for a detour, topology has %d", FaultLinkDown, t.HostCount())
		}
		return FaultSet{Links: []LinkFault{{A: 0, B: 1, Down: true}}}, nil
	})
	mustRegisterFaults(FaultBrownout, func(t Topology) (FaultSet, error) {
		hosts := t.HostCount()
		if hosts < 2 {
			return FaultSet{}, fmt.Errorf("mesh: %s needs at least 2 hosts", FaultBrownout)
		}
		if hosts > maxBrownoutHosts {
			return FaultSet{}, fmt.Errorf("mesh: %s faults every link pair; %d hosts exceed the bound %d", FaultBrownout, hosts, maxBrownoutHosts)
		}
		var fs FaultSet
		for a := 0; a < hosts; a++ {
			for b := a + 1; b < hosts; b++ {
				fs.Links = append(fs.Links, LinkFault{
					A: a, B: b,
					BandwidthScale: 0.5,
					ExtraLatency:   0.5 * t.InterLatency(a, b),
				})
			}
		}
		return fs, nil
	})
	mustRegisterFaults(FaultStraggler, func(t Topology) (FaultSet, error) {
		return FaultSet{Hosts: []HostFault{{Host: t.HostCount() - 1, NICScale: 0.25, IntraScale: 0.5}}}, nil
	})
	mustRegisterChurn := func(name string, b ChurnScenarioBuilder) {
		if err := r.RegisterChurnScenario(name, b); err != nil {
			panic(err)
		}
	}
	mustRegisterChurn(ChurnFlap, func(t Topology) (ChurnTimeline, error) {
		linkDown, err := r.BuildFaultScenario(FaultLinkDown, t)
		if err != nil {
			return ChurnTimeline{}, err
		}
		return ChurnTimeline{Steps: []ChurnStep{
			{At: 0, Faults: linkDown},
			{At: 1 * time.Second},
			{At: 2 * time.Second, Faults: linkDown},
			{At: 3 * time.Second},
		}}, nil
	})
	mustRegisterChurn(ChurnCascade, func(t Topology) (ChurnTimeline, error) {
		linkDown, err := r.BuildFaultScenario(FaultLinkDown, t)
		if err != nil {
			return ChurnTimeline{}, err
		}
		straggler, err := r.BuildFaultScenario(FaultStraggler, t)
		if err != nil {
			return ChurnTimeline{}, err
		}
		both := FaultSet{Links: linkDown.Links, Hosts: straggler.Hosts}
		return ChurnTimeline{Steps: []ChurnStep{
			{At: 0, Faults: linkDown},
			{At: 1 * time.Second, Faults: both},
			{At: 2 * time.Second, Faults: straggler},
			{At: 3 * time.Second},
		}}, nil
	})
	mustRegisterChurn(ChurnBrownoutRecovery, func(t Topology) (ChurnTimeline, error) {
		brownout, err := r.BuildFaultScenario(FaultBrownout, t)
		if err != nil {
			return ChurnTimeline{}, err
		}
		// Partial recovery: the same links at three-quarter bandwidth with
		// the extra latency gone, then fully healed.
		partial := FaultSet{Links: append([]LinkFault(nil), brownout.Links...)}
		for i := range partial.Links {
			partial.Links[i].BandwidthScale = 0.75
			partial.Links[i].ExtraLatency = 0
		}
		return ChurnTimeline{Steps: []ChurnStep{
			{At: 0, Faults: brownout},
			{At: 1 * time.Second, Faults: partial},
			{At: 2 * time.Second},
		}}, nil
	})
	return r
}

func hostsOrDefault(hosts, def int) int {
	if hosts == 0 {
		return def
	}
	return hosts
}

// ParseSlice parses the mesh notation shared by the CLIs and the
// plan-serving API — an n-dimensional shape and a first device, e.g.
// "2x4@0" or "2x2x2@8" — and carves the mesh out of the topology.
func ParseSlice(t Topology, s string) (*Mesh, error) {
	dims, firstStr, ok := strings.Cut(s, "@")
	if !ok || strings.IndexByte(firstStr, '@') >= 0 {
		return nil, fmt.Errorf("mesh: %q must look like 2x4@0", s)
	}
	first, err := strconv.Atoi(firstStr)
	if err != nil {
		return nil, fmt.Errorf("mesh: bad first device in %q: %v", s, err)
	}
	shape := make([]int, 0, strings.Count(dims, "x")+1)
	for more := true; more; {
		var p string
		p, dims, more = strings.Cut(dims, "x")
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("mesh: bad shape in %q: %v", s, err)
		}
		shape = append(shape, v)
	}
	return t.Slice(shape, first)
}
