package sharding

import (
	"fmt"
	"math"
	"slices"

	"alpacomm/internal/mesh"
	"alpacomm/internal/tensor"
)

// UnitTask is one unit communication task of a cross-mesh resharding
// (§2.2): a unique data slice that must travel from the source mesh (where
// Senders hold replicas) to every device in Receivers on the destination
// mesh.
type UnitTask struct {
	// Index is the task's position in the decomposition, used as a stable
	// identifier by the scheduler.
	Index int
	// Slice is the region of the global tensor this task moves.
	Slice tensor.Region
	// Senders are the physical devices on the source mesh holding a
	// replica of Slice (the paper's N_i). Sorted ascending.
	Senders []int
	// Receivers are the physical devices on the destination mesh that need
	// Slice (the paper's M_i). Sorted ascending.
	Receivers []int
}

// Bytes returns the size of the task's slice in bytes.
func (u UnitTask) Bytes(dt tensor.DType) int64 {
	return u.Slice.NumElements() * dt.Size()
}

// Task is a full cross-mesh resharding task: send tensor Global, sharded as
// SrcSpec on SrcMesh, to DstMesh where it must be laid out as DstSpec.
type Task struct {
	Global tensor.Shape
	DType  tensor.DType
	Src    *Placement
	Dst    *Placement
	Units  []UnitTask
}

// NewTask validates the resharding endpoints and decomposes the task into
// unit communication tasks with the Appendix B.2 cutpoint algorithm:
//
//  1. per tensor dimension, merge the shard cut points of the sender and
//     receiver placements;
//  2. the cross product of the resulting interval lists tiles the tensor
//     into slices;
//  3. each slice becomes a unit task whose senders are all source devices
//     holding it and whose receivers are all destination devices needing it.
func NewTask(global tensor.Shape, dt tensor.DType, srcMesh *mesh.Mesh, srcSpec Spec, dstMesh *mesh.Mesh, dstSpec Spec) (*Task, error) {
	if !mesh.Disjoint(srcMesh, dstMesh) {
		return nil, fmt.Errorf("sharding: cross-mesh resharding requires disjoint meshes")
	}
	// The task and both placements share one copy of the shape.
	g := global.Clone()
	src, err := newPlacement(srcMesh, srcSpec, g)
	if err != nil {
		return nil, fmt.Errorf("sharding: source placement: %v", err)
	}
	dst, err := newPlacement(dstMesh, dstSpec, g)
	if err != nil {
		return nil, fmt.Errorf("sharding: destination placement: %v", err)
	}
	t := &Task{Global: g, DType: dt, Src: src, Dst: dst}
	t.Units = decompose(src, dst)
	return t, nil
}

// tiling is one tensor dimension of the merged tiling: interval k is
// [cuts[k], cuts[k+1]) and lies in source shard src[k] and destination
// shard dst[k].
type tiling struct{ cuts, src, dst []int }

// mergeTiling merges two ascending cut lists with the same first and last
// point (step one of Appendix B.2), carving the tiling's lists from buf; it
// returns the rest of buf.
func mergeTiling(a, b, buf []int) (tiling, []int) {
	n := len(a) + len(b) - 2 // intervals, at most
	t := tiling{cuts: buf[: 1 : n+1], src: buf[n+1 : n+1 : 2*n+1], dst: buf[2*n+1 : 2*n+1 : 3*n+1]}
	t.cuts[0] = a[0]
	for ia, ib := 0, 0; ia+1 < len(a) && ib+1 < len(b); {
		next := min(a[ia+1], b[ib+1])
		t.cuts = append(t.cuts, next)
		t.src = append(t.src, ia)
		t.dst = append(t.dst, ib)
		if a[ia+1] == next {
			ia++
		}
		if b[ib+1] == next {
			ib++
		}
	}
	return t, buf[3*n+1:]
}

// shardTuple is the row-major index of the shard the device at mesh position
// flat holds, over the per-dimension shard degrees.
func (p *Placement) shardTuple(flat int) int {
	rank := len(p.cuts)
	t := 0
	for i, c := range p.coords[flat*rank : (flat+1)*rank] {
		t = t*(len(p.cuts[i])-1) + int(c)
	}
	return t
}

// holdersByShard fills out (one entry per device) with the placement's
// devices grouped by the shard they hold and ascending within a group, and
// returns the group size: every shard is held by the same number of devices,
// the product of the extents of the mesh axes the spec leaves unused, and
// shard t's holders are out[t*rep : (t+1)*rep]. fill is scratch, one entry
// per shard.
func (p *Placement) holdersByShard(out, fill []int) (rep int) {
	devs := p.Mesh.Devices
	rep = len(devs) / len(fill)
	byDevice := func(k int) int { return k } // the mesh position of the k-th smallest device
	if !slices.IsSorted(devs) {
		perm := make([]int, len(devs))
		for i := range perm {
			perm[i] = i
		}
		slices.SortFunc(perm, func(a, b int) int { return devs[a] - devs[b] })
		byDevice = func(k int) int { return perm[k] }
	}
	for k := range devs {
		flat := byDevice(k)
		t := p.shardTuple(flat)
		out[t*rep+fill[t]] = devs[flat]
		fill[t]++
	}
	return rep
}

// shards returns the number of distinct shards of the placement.
func (p *Placement) shards() int {
	n := 1
	for _, c := range p.cuts {
		n *= len(c) - 1
	}
	return n
}

// decompose implements Appendix B.2 over two placements: it merges each
// dimension's cut lists, walks the cross product of the merged intervals in
// row-major order, and gives each slice the devices holding the source and
// destination shards it lies in. A slice lies in exactly one shard of each
// placement, so its holders are one group of holdersByShard, and every
// unit's slice is carved from one array sized up front, its senders and
// receivers from another.
func decompose(src, dst *Placement) []UnitTask {
	rank := src.Global.Rank()
	if rank == 0 {
		return nil
	}
	sShards, dShards := src.shards(), dst.shards()
	size := rank + len(src.Mesh.Devices) + len(dst.Mesh.Devices) + sShards + dShards
	for i := 0; i < rank; i++ {
		size += 3*(len(src.cuts[i])+len(dst.cuts[i])-2) + 1
	}
	buf := make([]int, size)
	idx, buf := buf[:rank], buf[rank:]
	sHold, buf := buf[:len(src.Mesh.Devices)], buf[len(src.Mesh.Devices):]
	dHold, buf := buf[:len(dst.Mesh.Devices)], buf[len(dst.Mesh.Devices):]
	sRep := src.holdersByShard(sHold, buf[:sShards])
	dRep := dst.holdersByShard(dHold, buf[sShards:sShards+dShards])
	buf = buf[sShards+dShards:]

	var small [8]tiling
	tl := small[:0]
	if rank > len(small) {
		tl = make([]tiling, 0, rank)
	}
	nSlices := 1
	for i := 0; i < rank; i++ {
		var t tiling
		t, buf = mergeTiling(src.cuts[i], dst.cuts[i], buf)
		tl = append(tl, t)
		nSlices *= len(t.src)
	}

	units := make([]UnitTask, nSlices)
	regions := make([]tensor.Interval, nSlices*rank)
	holders := make([]int, nSlices*(sRep+dRep))
	senders, receivers := holders[:nSlices*sRep], holders[nSlices*sRep:]
	for u := range units {
		r := tensor.Region(regions[u*rank : (u+1)*rank : (u+1)*rank])
		st, dt := 0, 0
		for i := range tl {
			t, k := &tl[i], idx[i]
			r[i] = tensor.Interval{Lo: t.cuts[k], Hi: t.cuts[k+1]}
			st = st*(len(src.cuts[i])-1) + t.src[k]
			dt = dt*(len(dst.cuts[i])-1) + t.dst[k]
		}
		s := senders[u*sRep : (u+1)*sRep : (u+1)*sRep]
		copy(s, sHold[st*sRep:])
		d := receivers[u*dRep : (u+1)*dRep : (u+1)*dRep]
		copy(d, dHold[dt*dRep:])
		units[u] = UnitTask{Index: u, Slice: r, Senders: s, Receivers: d}
		// Row-major increment: bump the last dimension first.
		for i := rank - 1; i >= 0; i-- {
			if idx[i]++; idx[i] < len(tl[i].src) {
				break
			}
			idx[i] = 0
		}
	}
	return units
}

// OnTopology rebuilds the task with both meshes bound to a different
// topology: same logical shapes, same physical device indices, the same
// decomposition re-derived. The target must use the same device indexing
// as the meshes' current topology — the intended use is rebinding a task
// to a fault overlay (mesh.Faulted) of its own topology, or back to the
// overlay's base, without reconstructing the boundary by hand.
func (t *Task) OnTopology(topo mesh.Topology) (*Task, error) {
	src, err := mesh.NewMesh(topo, t.Src.Mesh.Shape, t.Src.Mesh.Devices)
	if err != nil {
		return nil, fmt.Errorf("sharding: rebind source mesh: %v", err)
	}
	dst, err := mesh.NewMesh(topo, t.Dst.Mesh.Shape, t.Dst.Mesh.Devices)
	if err != nil {
		return nil, fmt.Errorf("sharding: rebind destination mesh: %v", err)
	}
	return NewTask(t.Global, t.DType, src, t.Src.Spec, dst, t.Dst.Spec)
}

// TotalBytes returns the lower bound on cross-mesh traffic: the full tensor
// size (§2.2 — "the size of messages transferred between two meshes is
// lower bound by the size of D").
func (t *Task) TotalBytes() int64 {
	return t.Global.NumElements() * t.DType.Size()
}

// SenderHosts returns the candidate sender hosts of a unit task (the
// paper's n_i: scheduling happens at host granularity, §3.2).
func (t *Task) SenderHosts(u UnitTask) []int {
	return AppendHosts(nil, t.Src.Mesh.Topo, u.Senders)
}

// ReceiverHosts returns the receiver hosts of a unit task (m_i).
func (t *Task) ReceiverHosts(u UnitTask) []int {
	return AppendHosts(nil, t.Dst.Mesh.Topo, u.Receivers)
}

// AppendHosts appends the distinct hosts of ascending devices to b, in
// ascending order. Hosts own contiguous ascending device runs, so the hosts
// arrive in order and a device below the end of the last host's run is on
// that host: HostOf is asked once per host.
func AppendHosts(b []int, c mesh.Topology, devices []int) []int {
	end := math.MinInt
	for _, d := range devices {
		if d < end {
			continue
		}
		h := c.HostOf(d)
		first, n := c.HostDevices(h)
		end = first + n
		b = append(b, h)
	}
	return b
}

// CountHosts returns len(AppendHosts(nil, c, devices)).
func CountHosts(c mesh.Topology, devices []int) int {
	end, hosts := math.MinInt, 0
	for _, d := range devices {
		if d < end {
			continue
		}
		first, n := c.HostDevices(c.HostOf(d))
		end = first + n
		hosts++
	}
	return hosts
}

func (t *Task) String() string {
	return fmt.Sprintf("reshard %v %s: %s on %v -> %s on %v (%d unit tasks)",
		t.Global, t.DType, t.Src.Spec, t.Src.Mesh.Devices, t.Dst.Spec, t.Dst.Mesh.Devices, len(t.Units))
}
