package resharding

import (
	"fmt"
	"sort"

	"alpacomm/internal/collective"
	"alpacomm/internal/mesh"
	"alpacomm/internal/netsim"
)

// buildUnitOps registers the communication ops of one unit task under the
// plan's strategy and returns the run of b.done holding its completion ops
// (under Broadcast one per NIC lane, else one per receiver-side endpoint),
// used to chain Eq. 3 exclusivity between unit tasks.
//
//alpacomm:hotpath
func (b *PlanBuilder) buildUnitOps(opts Options, idx, sender int, receivers []int, elements, bytes int64, seq int, deps []netsim.OpID) (doneRun, error) {
	if opts.Strategy == Broadcast {
		return b.buildBroadcast(opts, idx, sender, receivers, bytes, seq, deps)
	}
	done, err := buildUnitOps(b.net, opts, b.unitLabels(idx).unit, sender, receivers, elements, bytes, seq, deps)
	if err != nil {
		return doneRun{}, err
	}
	from := len(b.done)
	b.done = append(b.done, done...)
	return b.closeRun(from)
}

// buildUnitOps is every strategy but Broadcast — the baselines and
// ablations, which return their completion ops in a slice of their own.
func buildUnitOps(net *netsim.ClusterNet, opts Options, label string, sender int, receivers []int, elements, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	switch opts.Strategy {
	case SendRecv:
		return buildSendRecv(net, label, sender, receivers, bytes, seq, deps)
	case LocalAllGather:
		return buildLocalAllGather(net, label, sender, receivers, bytes, seq, deps)
	case GlobalAllGather:
		return buildGlobalAllGather(net, label, sender, receivers, bytes, seq, deps, false)
	case Alpa:
		return buildAlpa(net, label, sender, receivers, elements, bytes, seq, deps)
	case Signal:
		return buildSendRecv(net, label, sender, receivers, 1, seq, deps)
	default:
		return nil, fmt.Errorf("resharding: unknown strategy %v", opts.Strategy)
	}
}

// buildSendRecv: one full copy per receiver device, serialized on the
// sender's resources (Fig. 3a).
func buildSendRecv(net *netsim.ClusterNet, label string, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	var done []netsim.OpID
	for _, dst := range receivers {
		lbl := netsim.Label{Prefix: label, Kind: netsim.LabelSendRecv, A: int32(dst)}
		id, err := net.Transfer(lbl, sender, dst, bytes, seq, deps...)
		if err != nil {
			return nil, err
		}
		done = append(done, id)
	}
	return done, nil
}

// buildLocalAllGather: per receiver host, scatter 1/B to each device and
// all-gather locally (Fig. 3b). Receivers on the sender's own host get
// direct NVLink copies.
func buildLocalAllGather(net *netsim.ClusterNet, label string, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	c := net.Topo
	var done []netsim.OpID
	for _, group := range groupByHost(c, receivers) {
		if c.HostOf(group[0]) == c.HostOf(sender) || len(group) == 1 {
			d, err := buildSendRecv(net, label, sender, group, bytes, seq, deps)
			if err != nil {
				return nil, err
			}
			done = append(done, d...)
			continue
		}
		parts := splitBytes(bytes, len(group))
		startDeps := map[int][]netsim.OpID{}
		for i, dst := range group {
			lbl := netsim.Label{Prefix: label, Kind: netsim.LabelScatter, A: int32(dst)}
			id, err := net.Transfer(lbl, sender, dst, parts[i], seq, deps...)
			if err != nil {
				return nil, err
			}
			startDeps[dst] = []netsim.OpID{id}
		}
		res, err := collective.RingAllGather(net, label+"/lag", group, bytes, seq, startDeps)
		if err != nil {
			return nil, err
		}
		done = append(done, res.AllDone()...)
	}
	return done, nil
}

// buildGlobalAllGather: scatter 1/(A·B) to every receiver, then one global
// ring all-gather (Fig. 3c). With barrier=true the all-gather waits for the
// whole scatter phase (separate launches, the Alpa baseline's behaviour);
// otherwise each device's part of the all-gather starts as soon as its own
// chunk arrives.
func buildGlobalAllGather(net *netsim.ClusterNet, label string, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID, barrier bool) ([]netsim.OpID, error) {
	if len(receivers) == 1 {
		return buildSendRecv(net, label, sender, receivers, bytes, seq, deps)
	}
	ring := collective.RingOrder(net.Topo, receivers)
	parts := splitBytes(bytes, len(ring))
	startDeps := map[int][]netsim.OpID{}
	var scatterOps []netsim.OpID
	for i, dst := range ring {
		lbl := netsim.Label{Prefix: label, Kind: netsim.LabelScatter, A: int32(dst)}
		id, err := net.Transfer(lbl, sender, dst, parts[i], seq, deps...)
		if err != nil {
			return nil, err
		}
		scatterOps = append(scatterOps, id)
		startDeps[dst] = []netsim.OpID{id}
	}
	if barrier {
		for _, dst := range ring {
			startDeps[dst] = scatterOps
		}
	}
	res, err := collective.RingAllGather(net, label+"/gag", ring, bytes, seq, startDeps)
	if err != nil {
		return nil, err
	}
	return res.AllDone(), nil
}

// buildBroadcast: the paper's pipelined broadcast chain (Fig. 3d). On
// clusters with several NICs per host, the unit task is divided into one
// sub-task per NIC (the §3.1 future-work extension): each part travels its
// own chain — a lane — over a distinct NIC, multiplying cross-host bandwidth;
// the lanes share the chain and are registered in one
// netsim.ClusterNet.PipelinedLanes call, which resolves its hops once and
// keeps the lanes as one record. chainNICs keeps the lane count at or below
// every chain host's NIC count, so no two lanes share a cross-host hop.
// The completion run holds one op per lane, lane by lane: its last chunk
// crossing the last hop. That op waits, through the lattice, on the last
// chunk's arrival at every other receiver, so a later unit task that waits
// on it waits on all of them.
//
//alpacomm:hotpath
func (b *PlanBuilder) buildBroadcast(opts Options, idx, sender int, receivers []int, bytes int64, seq int, deps []netsim.OpID) (doneRun, error) {
	net, labels := b.net, b.unitLabels(idx)
	chunks := opts.Chunks
	if chunks <= 0 {
		chunks = collective.DefaultChunks(bytes)
	}
	lanes := chainNICs(net.Topo, sender, receivers)
	if lanes == 1 || bytes < int64(lanes) {
		lanes = 1
	} else {
		chunks = (chunks + lanes - 1) / lanes
	}
	b.chain = collective.AppendBroadcastOrder(b.chain[:0], net.Topo, sender, receivers)
	chain, hops := b.chain, len(receivers)
	from := len(b.done)
	if lanes == 1 {
		first, used, err := collective.BroadcastChain(net, labels.bc, chain, bytes, chunks, seq, deps...)
		if err != nil {
			return doneRun{}, err
		}
		b.done = append(b.done, collective.ChainDone(first, used, hops, hops-1))
		return b.closeRun(from)
	}
	// Lane k carries bytes [k*bytes/lanes, (k+1)*bytes/lanes) over NIC k, in
	// chunks as BroadcastChain would cut it.
	b.lanes = b.lanes[:0]
	for k := 0; k < lanes; k++ {
		part := int64(k+1)*bytes/int64(lanes) - int64(k)*bytes/int64(lanes)
		used := chunks
		if part < int64(chunks) {
			used = 1
		}
		b.lanes = append(b.lanes, netsim.Lane{Prefix: labels.nicLabel(k), Bytes: part, Chunks: used})
	}
	first, err := net.PipelinedLanes(chain, b.lanes, seq, deps)
	if err != nil {
		return doneRun{}, err
	}
	for _, l := range b.lanes {
		b.done = append(b.done, collective.ChainDone(first, l.Chunks, hops, hops-1))
		first += netsim.OpID(l.Chunks * hops)
	}
	return b.closeRun(from)
}

// buildAlpa models the Alpa/Megatron-LM all-gather baseline: per-host
// all-gather when the receivers sit on one host, global all-gather with a
// scatter barrier otherwise — but only when the slice divides evenly over
// the receivers; uneven partitions fall back to naive send/recv (§5.1.1:
// "Alpa cannot handle uneven partition").
func buildAlpa(net *netsim.ClusterNet, label string, sender int, receivers []int, elements, bytes int64, seq int, deps []netsim.OpID) ([]netsim.OpID, error) {
	c := net.Topo
	groups := groupByHost(c, receivers)
	multiHost := len(groups) > 1
	if !multiHost {
		if elements%int64(len(receivers)) != 0 {
			return buildSendRecv(net, label, sender, receivers, bytes, seq, deps)
		}
		return buildLocalAllGather(net, label, sender, receivers, bytes, seq, deps)
	}
	if elements%int64(len(receivers)) != 0 {
		return buildSendRecv(net, label, sender, receivers, bytes, seq, deps)
	}
	return buildGlobalAllGather(net, label, sender, receivers, bytes, seq, deps, true)
}

// chainNICs returns the number of NICs a broadcast chain can stripe over:
// the smallest NIC count among the hosts on the chain, so every part of a
// split unit task has a dedicated NIC on every hop.
func chainNICs(t mesh.Topology, sender int, receivers []int) int {
	host := t.HostOf(sender)
	nics := t.NICCount(host)
	for _, d := range receivers {
		if h := t.HostOf(d); h != host {
			host = h
			if n := t.NICCount(h); n < nics {
				nics = n
			}
		}
	}
	if nics < 1 {
		nics = 1
	}
	return nics
}

// groupByHost splits devices into per-host groups, hosts ascending,
// devices ascending within a host.
func groupByHost(c mesh.Topology, devices []int) [][]int {
	byHost := map[int][]int{}
	for _, d := range devices {
		byHost[c.HostOf(d)] = append(byHost[c.HostOf(d)], d)
	}
	var hosts []int
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	out := make([][]int, 0, len(hosts))
	for _, h := range hosts {
		g := byHost[h]
		sort.Ints(g)
		out = append(out, g)
	}
	return out
}

// splitBytes divides bytes into n near-even parts.
func splitBytes(bytes int64, n int) []int64 {
	out := make([]int64, n)
	prev := int64(0)
	for j := 1; j <= n; j++ {
		b := int64(j) * bytes / int64(n)
		out[j-1] = b - prev
		prev = b
	}
	return out
}
