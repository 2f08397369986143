package resharding

import (
	"fmt"
	"strconv"
	"sync"

	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
)

// SimResult reports the simulated execution of a plan.
type SimResult struct {
	// Makespan is the completion time of the last unit task, seconds.
	Makespan float64
	// EffectiveGbps is the paper's figure-of-merit: total tensor bits
	// divided by the makespan (Figs. 5, 6, 8).
	EffectiveGbps float64
	// NumOps is the number of transfer ops issued.
	NumOps int
	// Events is the full op trace, for timeline rendering.
	Events []netsim.Event
	// Utilization maps resource name to busy fraction.
	Utilization map[string]float64
}

// PlanBuilder is a reusable simulation context: a ClusterNet whose op and
// resource arenas are rewound (not freed) between plans — plans on other
// topologies included — plus the scratch state of Eq. 3 exclusivity
// chaining. One builder simulates any number of plans sequentially with
// near-zero steady-state allocation; it is not safe for concurrent use.
// Plan.Simulate draws builders from an internal sync.Pool, so autotune
// workers and serving-cache misses replay warm arenas automatically;
// embedders that simulate many plans on one goroutine can hold a builder
// explicitly via AcquirePlanBuilder.
type PlanBuilder struct {
	net *netsim.ClusterNet
	// lastSend[h] / lastRecv[h] hold the completion ops of the previous
	// unit task that occupied host h's send / receive side (Eq. 3).
	lastSend map[int][]netsim.OpID
	lastRecv map[int][]netsim.OpID
	deps     []netsim.OpID
	// labels memoizes the "u<idx>" unit labels so repeated simulations on
	// a pooled builder stop re-rendering the same strings.
	labels []string
}

// unitLabel returns the memoized label for unit idx.
func (b *PlanBuilder) unitLabel(idx int) string {
	for idx >= len(b.labels) {
		b.labels = append(b.labels, "u"+strconv.Itoa(len(b.labels)))
	}
	return b.labels[idx]
}

// NewPlanBuilder returns an empty builder.
func NewPlanBuilder() *PlanBuilder {
	return &PlanBuilder{
		lastSend: map[int][]netsim.OpID{},
		lastRecv: map[int][]netsim.OpID{},
	}
}

var planBuilderPool = sync.Pool{New: func() interface{} { return NewPlanBuilder() }}

// AcquirePlanBuilder takes a builder from the shared pool.
func AcquirePlanBuilder() *PlanBuilder {
	return planBuilderPool.Get().(*PlanBuilder)
}

// Release returns the builder to the shared pool.
func (b *PlanBuilder) Release() {
	planBuilderPool.Put(b)
}

// bind points the builder's net at the topology and rewinds it. The op and
// resource arenas are kept whether or not the topology changed; a change
// costs only a new resource intern table (ClusterNet.Rebind).
func (b *PlanBuilder) bind(topo mesh.Topology) *netsim.ClusterNet {
	if b.net == nil {
		b.net = netsim.NewClusterNet(topo)
	} else {
		b.net.Rebind(topo)
	}
	clear(b.lastSend)
	clear(b.lastRecv)
	return b.net
}

// Simulate times the plan on the cluster's network model. Unit tasks that
// share a sender host (send side) or a receiver host (receive side) are
// serialized in plan order per Eq. 3; everything else proceeds in parallel
// at chunk granularity.
func (p *Plan) Simulate() (*SimResult, error) {
	b := AcquirePlanBuilder()
	defer b.Release()
	return p.SimulateWith(b)
}

// SimulateNoTrace is Simulate without rendering the Events timeline or the
// Utilization report (both nil in the result). Timing fields are identical
// to Simulate's; rendering is the only per-op string work left in the
// simulation path, so sweeps that only compare makespans — autotune trials,
// load tests — use this to stay allocation-free.
func (p *Plan) SimulateNoTrace() (*SimResult, error) {
	b := AcquirePlanBuilder()
	defer b.Release()
	return p.simulateWith(b, false)
}

// SimulateWith is Simulate on an explicitly held builder, for callers that
// simulate many plans on one goroutine and want to keep the arena warm
// without round-tripping the pool.
func (p *Plan) SimulateWith(b *PlanBuilder) (*SimResult, error) {
	return p.simulateWith(b, true)
}

//alpacomm:hotpath
func (p *Plan) simulateWith(b *PlanBuilder, trace bool) (*SimResult, error) {
	cluster := p.Task.Src.Mesh.Topo
	net := b.bind(cluster)
	for pos, idx := range p.Order {
		u := p.Task.Units[idx]
		sender, ok := p.SenderOf[idx]
		if !ok {
			return nil, fmt.Errorf("resharding: no sender assigned for unit %d", idx)
		}
		senderHost := cluster.HostOf(sender)
		recvHosts := p.Task.ReceiverHosts(u)
		deps := b.deps[:0]
		deps = append(deps, b.lastSend[senderHost]...)
		for _, h := range recvHosts {
			deps = append(deps, b.lastRecv[h]...)
		}
		b.deps = deps
		done, err := buildUnitOps(net, p.Opts, b.unitLabel(idx), sender, u.Receivers,
			u.Slice.NumElements(), u.Bytes(p.Task.DType), pos, deps)
		if err != nil {
			return nil, fmt.Errorf("resharding: unit %d: %v", idx, err)
		}
		b.lastSend[senderHost] = done
		for _, h := range recvHosts {
			b.lastRecv[h] = done
		}
	}
	makespan, err := net.Run()
	if err != nil {
		return nil, err
	}
	res := &SimResult{
		Makespan: makespan,
		NumOps:   net.Sim.NumOps(),
	}
	if trace {
		res.Events = net.Sim.Events()
		res.Utilization = net.Sim.Utilization()
	}
	if makespan > 0 {
		res.EffectiveGbps = float64(p.Task.TotalBytes()) * 8 / makespan / 1e9
	}
	return res, nil
}
