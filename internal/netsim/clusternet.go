package netsim

import (
	"fmt"
	"math"
	"slices"
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
// Rebind does the same across topologies: the Sim and its arenas stay, and
// so does the intern table wherever its slot names still apply — device
// slots always, NIC slots when the per-host NIC counts match.
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
// on next use. It also carries PipelinedChain's scratch, so that every OnNIC
// view shares it.
type resourceTable struct {
	gen      uint32
	devSend  []resSlot
	devRecv  []resSlot
	hostOff  []int32 // hostOff[h] is host h's first slot; len hosts+1
	hostSend []resSlot
	hostRecv []resSlot
	// names caches the NIC-direction names of each host index, rendered
	// once and kept across NIC layouts, which only move them between slots.
	names []nicNames

	// mark[d] == stamp while the chain being validated already lists device
	// d; hops is the chain's resolved edges.
	mark  []uint32
	stamp uint32
	hops  []hop
	// cross lists the chain's cross-host hops, in hop order.
	cross []crossHop
}

// crossHop is a cross-host hop of a resolved chain: its index and its
// (source, destination) host.
type crossHop struct{ j, hs, hd int32 }

// nicNames are one host index's NIC-direction names, by direction
// (send, recv): plain is "host<h>:<dir>", the name on a single-NIC host, and
// nic[k] is "host<h>:<dir>:nic<k>".
type nicNames struct {
	plain [2]string
	nic   [][2]string
}

// hostName returns the name of host h's NIC k in direction dir (0 send,
// 1 recv) on a host with nics NICs, rendering it on first use.
func (tab *resourceTable) hostName(h, dir, k, nics int) string {
	for h >= len(tab.names) {
		tab.names = append(tab.names, nicNames{})
	}
	nn := &tab.names[h]
	p := &nn.plain[dir]
	if nics > 1 {
		for k >= len(nn.nic) {
			nn.nic = append(nn.nic, [2]string{})
		}
		p = &nn.nic[k][dir]
	}
	if *p == "" {
		*p = hostName(h, dirNames[dir], k, nics)
	}
	return *p
}

var dirNames = [2]string{"send", "recv"}

func newResourceTable(t mesh.Topology) *resourceTable {
	tab := &resourceTable{}
	tab.bind(t)
	return tab
}

// bind sizes the table for a topology and opens a new generation. Slot names
// outlive a change of topology where they cannot differ: "dev<d>:send|recv"
// depends on nothing but the device index, so the device slots only ever
// grow, and a NIC slot's name is fixed by its host, its NIC index and its
// host's NIC count, so the NIC slots are cleared only when the per-host NIC
// counts (hostOff) differ. Clearing keeps their memory, and the names
// themselves stay in the names cache for the next slot that needs them.
func (tab *resourceTable) bind(t mesh.Topology) {
	tab.gen++
	if n := t.NumDevices(); n > len(tab.devSend) {
		tab.devSend = append(tab.devSend, make([]resSlot, n-len(tab.devSend))...)
		tab.devRecv = append(tab.devRecv, make([]resSlot, n-len(tab.devRecv))...)
		tab.mark = append(tab.mark, make([]uint32, n-len(tab.mark))...)
	}
	hosts := t.HostCount()
	same := len(tab.hostOff) == hosts+1
	off := int32(0)
	for h := 0; h < hosts && same; h++ {
		off += int32(t.NICCount(h))
		same = tab.hostOff[h+1] == off
	}
	if same {
		return
	}
	tab.hostOff = slices.Grow(tab.hostOff[:0], hosts+1)[:hosts+1]
	tab.hostOff[0] = 0
	for h := 0; h < hosts; h++ {
		tab.hostOff[h+1] = tab.hostOff[h] + int32(t.NICCount(h))
	}
	nicSlots := int(tab.hostOff[hosts])
	tab.hostSend = slices.Grow(tab.hostSend[:0], nicSlots)[:nicSlots]
	tab.hostRecv = slices.Grow(tab.hostRecv[:0], nicSlots)[:nicSlots]
	clear(tab.hostSend)
	clear(tab.hostRecv)
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

// Rebind points the net at a topology and rewinds it for the next schedule:
// the Sim is rewound as by Reset — every arena keeps its capacity — and the
// intern table keeps every slot whose name the new topology shares (see
// resourceTable.bind), which on the topology it is already bound to, or an
// identical one, is every slot. No topology is compared or fingerprinted.
// Handles and OnNIC views from before the call are invalid.
func (n *ClusterNet) Rebind(t mesh.Topology) {
	n.Sim.Reset()
	n.Topo = t
	n.ids.bind(t)
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
			slot.name = n.ids.hostName(a, 0, b, nics)
		case nameHostRecv:
			slot.name = n.ids.hostName(a, 1, b, nics)
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

// nicIndex resolves this net view's NIC selector on a concrete host: its
// NIC index and the host's NIC count, read off the intern table's layout.
func (n *ClusterNet) nicIndex(host int) (k, nics int) {
	nics = int(n.ids.hostOff[host+1] - n.ids.hostOff[host])
	return ((n.nic % nics) + nics) % nics, nics
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
	k, nics := n.nicIndex(host)
	return n.intern(&n.ids.hostSend[n.ids.hostOff[host]+int32(k)], nameHostSend, host, k, nics)
}

// HostRecv returns the receive side of the host NIC this net view uses.
func (n *ClusterNet) HostRecv(host int) ResourceID {
	k, nics := n.nicIndex(host)
	return n.intern(&n.ids.hostRecv[n.ids.hostOff[host]+int32(k)], nameHostRecv, host, k, nics)
}

// route returns the latency and bandwidth transfers from a device on host hs
// to one on host hd are timed with.
func (n *ClusterNet) route(hs, hd int) (lat, bw float64) {
	t := n.Topo
	if hs == hd {
		return t.IntraLatency(hs), t.IntraBandwidth(hs)
	}
	return t.InterLatency(hs, hd), t.InterBandwidth(hs, hd)
}

// hopBetween resolves the edge src -> dst (on hosts hs, hd): the resources a
// transfer over it occupies, send side interned first, and its route.
func (n *ClusterNet) hopBetween(src, hs, dst, hd int) hop {
	var h hop
	h.lat, h.bw = n.route(hs, hd)
	if hs == hd {
		h.res[0], h.res[1] = n.DeviceSend(src), n.DeviceRecv(dst)
	} else {
		h.res[0], h.res[1] = n.HostSend(hs), n.HostRecv(hd)
	}
	return h
}

// TransferTime returns the modelled duration of one point-to-point transfer
// of the given size between two devices (latency + bytes/bandwidth).
func (n *ClusterNet) TransferTime(src, dst int, bytes int64) float64 {
	lat, bw := n.route(n.Topo.HostOf(src), n.Topo.HostOf(dst))
	return lat + float64(bytes)/bw
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
		return 0, errAfterRun
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
	h := n.hopBetween(src, t.HostOf(src), dst, t.HostOf(dst))
	dur := h.lat + float64(bytes)/h.bw
	if !withLatency {
		dur -= h.lat
	}
	return n.Sim.AddOp(label, dur, seq, h.res[:], deps...)
}

// PipelinedChain registers a message of the given size travelling the device
// chain hop by hop in `chunks` pipelined pieces — the op lattice of the
// paper's §3.1 broadcast — and returns the id of its first op. Op (i, j),
// chunk i crossing hop j (chain[j] -> chain[j+1]), has id
// first + i*hops + j, label "<prefix>/c<i>/h<j>" and the duration
// Transfer (i = 0) or StreamTransfer (i > 0) would give chunk i on that hop;
// chain[j+1] holds the whole message once op first + (chunks-1)*hops + j
// finishes. deps gate chunk 0 leaving the sender; every later chunk waits on
// the one before it, and so on them too.
//
// Everything a chain of Transfer calls checks per op is checked here once
// per chain — the schedule has not run, the devices are valid and distinct
// (so no hop is a self-transfer), the size is not negative, deps name
// earlier ops — and the resources and the (latency, bandwidth) of each hop
// are resolved once per hop instead of once per chunk. The chain is kept as
// a one-lane lattice record, not chunks x hops ops (see Sim.addLane), and
// Run times it hop by hop, each hop's chunks as one run. Each call is a
// record of its own: NIC lanes that share device hops are registered
// together by PipelinedLanes, which times them as one record; one call per
// lane, through OnNIC views, leaves the heap to time the shared hops.
//
//alpacomm:hotpath
func (n *ClusterNet) PipelinedChain(prefix string, chain []int, bytes int64, chunks, seq int, deps []OpID) (OpID, error) {
	if err := n.checkLane(prefix, chain, bytes, chunks); err != nil {
		return 0, err
	}
	if err := n.checkChain(prefix, chain, deps); err != nil {
		return 0, err
	}
	return n.Sim.addLane(true, prefix, n.resolveHops(chain), bytes, chunks, seq, deps)
}

// Lane is one NIC lane of PipelinedLanes: the label prefix of its ops, its
// share of the message and its chunk count.
type Lane struct {
	Prefix string
	Bytes  int64
	Chunks int
}

// PipelinedLanes registers the NIC lanes of one unit task — the paper's
// multi-NIC extension — and returns the id of the first op of lane 0: it
// registers the ops OnNIC(k).PipelinedChain(lanes[k].Prefix, chain,
// lanes[k].Bytes, lanes[k].Chunks, seq, deps) would for k = 0, 1, ..., with
// the same ids, labels, resources (interned in the same order), durations
// and errors; lane k's ops follow lane k-1's. The chain is validated and its
// hops resolved once, for lane 0; lane k takes lane 0's hops with NIC k's
// resources on the cross-host ones. The lanes are one lattice record with a
// lane axis (see Sim.addLane), which Run times hop by hop: a hop no two
// lanes share, as every cross-host hop is while there are no more lanes
// than NICs, lane by lane; a hop all lanes share, as every device hop is,
// as one server taking the lanes' chunks in (ready, lane) order. A hop only
// some lanes share — a lane past a host's NIC count wraps onto NIC 0 —
// leaves the graph to the heap. A lane that fails leaves the lanes before
// it registered, as the calls would.
//
//alpacomm:hotpath
func (n *ClusterNet) PipelinedLanes(chain []int, lanes []Lane, seq int, deps []OpID) (OpID, error) {
	var first OpID
	for k := range lanes {
		l := &lanes[k]
		if err := n.checkLane(l.Prefix, chain, l.Bytes, l.Chunks); err != nil {
			return 0, err
		}
		view := *n
		view.nic = k
		var hops []hop
		if k == 0 {
			if err := view.checkChain(l.Prefix, chain, deps); err != nil {
				return 0, err
			}
			hops = view.resolveHops(chain)
		} else {
			hops = view.laneHops()
		}
		id, err := n.Sim.addLane(k == 0, l.Prefix, hops, l.Bytes, l.Chunks, seq, deps)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			first = id
		}
	}
	return first, nil
}

// checkLane is PipelinedChain's checks of its scalar arguments.
func (n *ClusterNet) checkLane(prefix string, chain []int, bytes int64, chunks int) error {
	if n.Sim.ran {
		return errAfterRun
	}
	if len(chain) < 2 {
		return fmt.Errorf("netsim: chain %q needs >= 2 devices, got %d", prefix, len(chain))
	}
	if chunks < 1 {
		return fmt.Errorf("netsim: chain %q has chunk count %d < 1", prefix, chunks)
	}
	if bytes < 0 {
		return fmt.Errorf("netsim: chain %q has negative size %d", prefix, bytes)
	}
	if bytes > math.MaxInt64/int64(chunks) {
		return fmt.Errorf("netsim: chain %q: %d bytes in %d chunks overflow the chunk boundaries", prefix, bytes, chunks)
	}
	return nil
}

// checkChain is PipelinedChain's checks of its chain and deps: valid devices,
// none listed twice, deps naming registered ops.
func (n *ClusterNet) checkChain(prefix string, chain []int, deps []OpID) error {
	t, tab := n.Topo, n.ids
	tab.stamp++
	if tab.stamp == 0 { // wrapped: forget the marks of 2^32 chains ago
		clear(tab.mark)
		tab.stamp = 1
	}
	for _, d := range chain {
		if !t.ValidDevice(d) || d >= len(tab.mark) {
			return fmt.Errorf("netsim: chain %q lists invalid device %d", prefix, d)
		}
		if tab.mark[d] == tab.stamp {
			return fmt.Errorf("netsim: chain %q lists device %d twice", prefix, d)
		}
		tab.mark[d] = tab.stamp
	}
	for _, d := range deps {
		if d < 0 || int(d) >= n.Sim.nOps {
			return fmt.Errorf("netsim: chain %q depends on unknown op %d", prefix, d)
		}
	}
	return nil
}

// resolveHops resolves the hops of a validated chain into the table's
// scratch, interning each hop's resources in order, and records the
// cross-host hops for laneHops.
func (n *ClusterNet) resolveHops(chain []int) []hop {
	t, tab := n.Topo, n.ids
	hops, cross := tab.hops[:0], tab.cross[:0]
	src, hs := chain[0], t.HostOf(chain[0])
	for _, dst := range chain[1:] {
		hd := t.HostOf(dst)
		if hs != hd {
			cross = append(cross, crossHop{j: int32(len(hops)), hs: int32(hs), hd: int32(hd)})
		}
		hops = append(hops, n.hopBetween(src, hs, dst, hd))
		src, hs = dst, hd
	}
	tab.hops, tab.cross = hops, cross
	return hops
}

// laneHops rewrites the hops resolveHops last resolved for this view's NIC:
// the cross-host hops take its NIC's resources, interned in hop order, and
// the intra-host ones and every route stay.
func (n *ClusterNet) laneHops() []hop {
	tab := n.ids
	for _, c := range tab.cross {
		tab.hops[c.j].res[0], tab.hops[c.j].res[1] = n.HostSend(int(c.hs)), n.HostRecv(int(c.hd))
	}
	return tab.hops
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
