package netsim

import (
	"fmt"
	"strconv"

	"alpacomm/internal/mesh"
)

// ClusterNet binds a Sim to a hardware topology and issues point-to-point
// transfers with the right resources and durations:
//
//   - intra-host transfers occupy the source device's send side and the
//     destination device's receive side at the host's intra-host bandwidth;
//   - cross-host transfers occupy the source host's NIC send side and the
//     destination host's NIC receive side at the effective inter-host
//     bandwidth (full duplex — §3's cluster properties, generalised to
//     per-host NIC tiers and oversubscribed fabrics).
//
// Resource handles are interned once per (topology, Sim generation): the
// first transfer touching a device or NIC direction registers it and every
// later transfer reuses the typed ResourceID, so no per-op name formatting
// or map lookup happens on the hot path. Reset rewinds the bound Sim and
// invalidates the interned handles in one step, letting a pooled ClusterNet
// replay arbitrarily many schedules on the same topology allocation-free.
// Rebind does the same across topologies: the Sim and its arenas stay, only
// the intern table (a few slots per device and NIC) is rebuilt.
type ClusterNet struct {
	Sim *Sim
	// Topo is the topology transfers are timed and resourced against.
	Topo mesh.Topology
	// nic selects which of a host's NICs cross-host transfers ride, taken
	// modulo each host's NIC count (always 0 for single-NIC hosts). Set
	// with OnNIC.
	nic int
	// ids is the intern table, shared across OnNIC views.
	ids *resourceTable
}

// resSlot caches one interned resource: its rendered name (kept across
// generations so re-registration after Reset is allocation-free) and its
// handle in the current Sim generation.
type resSlot struct {
	name string
	id   ResourceID
	gen  uint32
}

// resourceTable holds the lazily interned per-device and per-NIC resource
// handles. gen is bumped by Reset; slots from older generations re-register
// on next use.
type resourceTable struct {
	gen      uint32
	devSend  []resSlot
	devRecv  []resSlot
	hostOff  []int32 // hostOff[h] is host h's first slot; len hosts+1
	hostSend []resSlot
	hostRecv []resSlot
}

func newResourceTable(t mesh.Topology) *resourceTable {
	hosts := t.HostCount()
	tab := &resourceTable{
		gen:     1,
		devSend: make([]resSlot, t.NumDevices()),
		devRecv: make([]resSlot, t.NumDevices()),
		hostOff: make([]int32, hosts+1),
	}
	for h := 0; h < hosts; h++ {
		tab.hostOff[h+1] = tab.hostOff[h] + int32(t.NICCount(h))
	}
	nicSlots := tab.hostOff[hosts]
	tab.hostSend = make([]resSlot, nicSlots)
	tab.hostRecv = make([]resSlot, nicSlots)
	return tab
}

// OnNIC returns a view of the net whose cross-host transfers use the k-th
// NIC of each host (k taken modulo each host's NIC count). The paper's
// multi-NIC extension splits a unit task into one sub-task per NIC.
func (n *ClusterNet) OnNIC(k int) *ClusterNet {
	cp := *n
	cp.nic = k
	return &cp
}

// NewClusterNet creates a fresh simulator over the topology.
func NewClusterNet(t mesh.Topology) *ClusterNet {
	return &ClusterNet{Sim: NewSim(), Topo: t, ids: newResourceTable(t)}
}

// Reset rewinds the bound Sim and invalidates all interned resource
// handles, keeping every arena and the cached resource names. The next
// schedule built on this net re-registers only the resources it touches.
func (n *ClusterNet) Reset() {
	n.Sim.Reset()
	n.ids.gen++
}

// Rebind points the net at a topology and rewinds it for the next schedule.
// On the topology it is already bound to this is Reset; on another one the
// Sim is rewound just the same — every arena keeps its capacity — and only
// the intern table is rebuilt, since resource names and slot counts belong
// to the topology. Handles and OnNIC views from before the call are
// invalid either way.
func (n *ClusterNet) Rebind(t mesh.Topology) {
	if mesh.SameTopology(n.Topo, t) {
		n.Reset()
		return
	}
	n.Sim.Reset()
	n.Topo = t
	n.ids = newResourceTable(t)
}

// resource-name patterns for intern; kept as an enum (not closures) so the
// hot path builds no function values.
const (
	nameDevSend = iota
	nameDevRecv
	nameHostSend
	nameHostRecv
)

// intern returns the slot's handle, registering the resource in the
// current Sim generation (and rendering its name on first-ever use).
func (n *ClusterNet) intern(slot *resSlot, kind, a, b, nics int) ResourceID {
	if slot.gen == n.ids.gen {
		return slot.id
	}
	if slot.name == "" {
		switch kind {
		case nameDevSend:
			slot.name = "dev" + strconv.Itoa(a) + ":send"
		case nameDevRecv:
			slot.name = "dev" + strconv.Itoa(a) + ":recv"
		case nameHostSend:
			slot.name = hostName(a, "send", b, nics)
		case nameHostRecv:
			slot.name = hostName(a, "recv", b, nics)
		}
	}
	id, err := n.Sim.NewResource(slot.name)
	if err != nil {
		// The transfer path rejects post-Run builds before interning, so
		// this is only reachable by calling DeviceSend/HostSend & co.
		// directly on a completed schedule — a handle request that cannot
		// be satisfied, reported loudly.
		panic(err)
	}
	slot.id = id
	slot.gen = n.ids.gen
	return id
}

// DeviceSend returns the send-side resource of a device's intra-host link.
func (n *ClusterNet) DeviceSend(dev int) ResourceID {
	return n.intern(&n.ids.devSend[dev], nameDevSend, dev, 0, 0)
}

// DeviceRecv returns the receive-side resource of a device's intra-host link.
func (n *ClusterNet) DeviceRecv(dev int) ResourceID {
	return n.intern(&n.ids.devRecv[dev], nameDevRecv, dev, 0, 0)
}

// nicIndex resolves this net view's NIC selector on a concrete host.
func (n *ClusterNet) nicIndex(host int) int {
	nics := n.Topo.NICCount(host)
	return ((n.nic % nics) + nics) % nics
}

// hostName renders the NIC-direction resource name exactly as the
// single-NIC and multi-NIC naming schemes require.
func hostName(host int, dir string, nic, nics int) string {
	if nics > 1 {
		return "host" + strconv.Itoa(host) + ":" + dir + ":nic" + strconv.Itoa(nic)
	}
	return "host" + strconv.Itoa(host) + ":" + dir
}

// HostSend returns the send side of the host NIC this net view uses.
func (n *ClusterNet) HostSend(host int) ResourceID {
	nics := n.Topo.NICCount(host)
	k := n.nicIndex(host)
	return n.intern(&n.ids.hostSend[n.ids.hostOff[host]+int32(k)], nameHostSend, host, k, nics)
}

// HostRecv returns the receive side of the host NIC this net view uses.
func (n *ClusterNet) HostRecv(host int) ResourceID {
	nics := n.Topo.NICCount(host)
	k := n.nicIndex(host)
	return n.intern(&n.ids.hostRecv[n.ids.hostOff[host]+int32(k)], nameHostRecv, host, k, nics)
}

// TransferTime returns the modelled duration of one point-to-point transfer
// of the given size between two devices (latency + bytes/bandwidth).
func (n *ClusterNet) TransferTime(src, dst int, bytes int64) float64 {
	t := n.Topo
	if t.SameHost(src, dst) {
		h := t.HostOf(src)
		return t.IntraLatency(h) + float64(bytes)/t.IntraBandwidth(h)
	}
	hs, hd := t.HostOf(src), t.HostOf(dst)
	return t.InterLatency(hs, hd) + float64(bytes)/t.InterBandwidth(hs, hd)
}

// Transfer registers a point-to-point transfer op between two devices and
// returns its id. seq fixes per-resource FIFO order among simultaneously
// ready transfers.
func (n *ClusterNet) Transfer(label Label, src, dst int, bytes int64, seq int, deps ...OpID) (OpID, error) {
	return n.transfer(label, src, dst, bytes, seq, true, deps)
}

// StreamTransfer registers a transfer that continues an established stream
// on the same route: it pays bandwidth but not the per-transfer latency.
// Used for the non-first chunks of a pipelined broadcast, which NCCL
// streams without re-paying launch and wire latency.
func (n *ClusterNet) StreamTransfer(label Label, src, dst int, bytes int64, seq int, deps ...OpID) (OpID, error) {
	return n.transfer(label, src, dst, bytes, seq, false, deps)
}

func (n *ClusterNet) transfer(label Label, src, dst int, bytes int64, seq int, withLatency bool, deps []OpID) (OpID, error) {
	if n.Sim.ran {
		// Guard before interning: resolving resources for a post-Run
		// transfer would otherwise try to register into the completed
		// schedule. Matches AddOp's error path.
		return 0, fmt.Errorf("netsim: cannot add ops after Run")
	}
	t := n.Topo
	if !t.ValidDevice(src) || !t.ValidDevice(dst) {
		return 0, fmt.Errorf("netsim: transfer %q between invalid devices %d -> %d", label.String(), src, dst)
	}
	if src == dst {
		return 0, fmt.Errorf("netsim: transfer %q to self on device %d", label.String(), src)
	}
	if bytes < 0 {
		return 0, fmt.Errorf("netsim: transfer %q has negative size %d", label.String(), bytes)
	}
	var res [2]ResourceID
	dur := n.TransferTime(src, dst, bytes)
	if !withLatency {
		if t.SameHost(src, dst) {
			dur -= t.IntraLatency(t.HostOf(src))
		} else {
			dur -= t.InterLatency(t.HostOf(src), t.HostOf(dst))
		}
	}
	if t.SameHost(src, dst) {
		res[0], res[1] = n.DeviceSend(src), n.DeviceRecv(dst)
	} else {
		res[0], res[1] = n.HostSend(t.HostOf(src)), n.HostRecv(t.HostOf(dst))
	}
	return n.Sim.AddOp(label, dur, seq, res[:], deps...)
}

// MustTransfer is Transfer that panics on error.
func (n *ClusterNet) MustTransfer(label Label, src, dst int, bytes int64, seq int, deps ...OpID) OpID {
	id, err := n.Transfer(label, src, dst, bytes, seq, deps...)
	if err != nil {
		panic(err)
	}
	return id
}

// Run executes the accumulated schedule and returns its makespan.
func (n *ClusterNet) Run() (float64, error) { return n.Sim.Run() }
