package resharding

import (
	"fmt"
	"math"
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
	// done is the arena of completion ops, one run per unit task built so
	// far; lastSend[h] / lastRecv[h] are the runs of the previous unit task
	// that occupied host h's send / receive side (Eq. 3).
	done     []netsim.OpID
	lastSend []doneRun
	lastRecv []doneRun
	// Scratch of the unit task being built: its Eq. 3 dependencies, its
	// receiver hosts, its broadcast chain and the chain's NIC lanes.
	deps  []netsim.OpID
	hosts []int
	chain []int
	lanes []netsim.Lane
	// labels memoizes the op-label prefixes of each unit index, so repeated
	// simulations on a pooled builder stop re-rendering the same strings.
	// Bounded by the largest unit and NIC counts the builder has seen.
	labels []unitLabels
}

// doneRun is a window of PlanBuilder.done.
type doneRun struct{ off, n int32 }

// unitLabels are the label prefixes of one unit index: "u<i>", the
// broadcast's "u<i>/bc" and, per NIC lane k, "u<i>/bc.nic<k>".
type unitLabels struct {
	unit, bc string
	nic      []string
}

// unitLabels returns the memoized label prefixes for unit idx.
func (b *PlanBuilder) unitLabels(idx int) *unitLabels {
	for idx >= len(b.labels) {
		unit := "u" + strconv.Itoa(len(b.labels))
		b.labels = append(b.labels, unitLabels{unit: unit, bc: unit + "/bc"})
	}
	return &b.labels[idx]
}

// nicLabel returns the memoized "u<i>/bc.nic<k>".
func (l *unitLabels) nicLabel(k int) string {
	for k >= len(l.nic) {
		l.nic = append(l.nic, l.bc+".nic"+strconv.Itoa(len(l.nic)))
	}
	return l.nic[k]
}

// run returns the completion ops a window names.
func (b *PlanBuilder) run(w doneRun) []netsim.OpID { return b.done[w.off : w.off+w.n] }

// closeRun returns the window of the completion ops appended to b.done since
// it held `from` entries. Windows are int32 pairs; a plan whose completion
// ops outgrow them is refused rather than wrapped.
//
//alpacomm:hotpath
func (b *PlanBuilder) closeRun(from int) (doneRun, error) {
	if len(b.done) > math.MaxInt32 {
		return doneRun{}, fmt.Errorf("resharding: %d completion ops overflow the int32 windows", len(b.done))
	}
	return doneRun{off: int32(from), n: int32(len(b.done) - from)}, nil
}

// NewPlanBuilder returns an empty builder.
func NewPlanBuilder() *PlanBuilder {
	return &PlanBuilder{}
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
// resource arenas are kept whether or not the topology changed
// (ClusterNet.Rebind).
func (b *PlanBuilder) bind(topo mesh.Topology) *netsim.ClusterNet {
	if b.net == nil {
		b.net = netsim.NewClusterNet(topo)
	} else {
		b.net.Rebind(topo)
	}
	b.done = b.done[:0]
	hosts := topo.HostCount()
	b.lastSend = append(b.lastSend[:0], make([]doneRun, hosts)...)
	b.lastRecv = append(b.lastRecv[:0], make([]doneRun, hosts)...)
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
		u := &p.Task.Units[idx]
		sender, ok := p.SenderOf[idx]
		if !ok {
			return nil, fmt.Errorf("resharding: no sender assigned for unit %d", idx)
		}
		// The per-host windows are indexed by host, so a hand-built plan's
		// stray device is refused here rather than by the emitter below.
		if !cluster.ValidDevice(sender) {
			return nil, fmt.Errorf("resharding: unit %d: invalid sender device %d", idx, sender)
		}
		senderHost := cluster.HostOf(sender)
		// Receivers are sorted and hosts own ascending device runs, so
		// dropping consecutive repeats leaves Task.ReceiverHosts' list.
		recvHosts := b.hosts[:0]
		for _, d := range u.Receivers {
			if !cluster.ValidDevice(d) {
				return nil, fmt.Errorf("resharding: unit %d: invalid receiver device %d", idx, d)
			}
			if h := cluster.HostOf(d); len(recvHosts) == 0 || recvHosts[len(recvHosts)-1] != h {
				recvHosts = append(recvHosts, h)
			}
		}
		b.hosts = recvHosts
		// The unit task waits on the runs of the unit tasks before it on
		// each of its hosts, each run once however many hosts name it.
		send := b.lastSend[senderHost]
		deps := append(b.deps[:0], b.run(send)...)
	receivers:
		for i, h := range recvHosts {
			w := b.lastRecv[h]
			if w == send {
				continue
			}
			for _, prev := range recvHosts[:i] {
				if b.lastRecv[prev] == w {
					continue receivers
				}
			}
			deps = append(deps, b.run(w)...)
		}
		b.deps = deps
		done, err := b.buildUnitOps(p.Opts, idx, sender, u.Receivers,
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
