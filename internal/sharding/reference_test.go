package sharding

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/tensor"
)

// referenceRegions is the region of every device of a placement, in mesh
// order, as the placement once cached them: RegionAt of each mesh
// coordinate.
func referenceRegions(t *testing.T, p *Placement) []DeviceRegion {
	t.Helper()
	out := make([]DeviceRegion, p.Mesh.NumDevices())
	for flat, d := range p.Mesh.Devices {
		r, err := p.RegionAt(p.Mesh.CoordOf(flat)...)
		if err != nil {
			t.Fatal(err)
		}
		out[flat] = DeviceRegion{Device: d, Region: r}
	}
	return out
}

// referenceHolders is HoldersOf as a Contains scan over the reference
// regions, in mesh order.
func referenceHolders(regions []DeviceRegion, s tensor.Region) []int {
	var out []int
	for _, dr := range regions {
		if dr.Region.Contains(s) {
			out = append(out, dr.Device)
		}
	}
	return out
}

// referenceDecompose is the Appendix B.2 decomposition as a map-merged cut
// list per dimension, the cross product of its intervals, and a Contains
// scan plus a sort per slice for its holders.
func referenceDecompose(t *testing.T, src, dst *Placement) []UnitTask {
	rank := src.Global.Rank()
	dims := make([][]tensor.Interval, rank)
	for i := 0; i < rank; i++ {
		dims[i] = tensor.IntervalsFromCuts(tensor.MergeCuts(src.Cuts(i), dst.Cuts(i)))
	}
	srcRegions, dstRegions := referenceRegions(t, src), referenceRegions(t, dst)
	var units []UnitTask
	for _, s := range tensor.CrossProduct(dims) {
		senders := referenceHolders(srcRegions, s)
		receivers := referenceHolders(dstRegions, s)
		sort.Ints(senders)
		sort.Ints(receivers)
		units = append(units, UnitTask{Index: len(units), Slice: s, Senders: senders, Receivers: receivers})
	}
	return units
}

// randomMesh draws a mesh of rank 1 to 3 and at most 12 devices from the
// free devices of topo, marking them used: a contiguous ascending run or a
// random scatter, in ascending or shuffled mesh order.
func randomMesh(t *testing.T, r *rand.Rand, topo mesh.Topology, used []bool) *mesh.Mesh {
	var shape []int
	n := 1
	for a, rank := 0, 1+r.Intn(3); a < rank; a++ {
		e := 1 + r.Intn(4)
		if n*e > 12 {
			e = 1
		}
		shape = append(shape, e)
		n *= e
	}
	var free []int
	for d, u := range used {
		if !u {
			free = append(free, d)
		}
	}
	if len(free) < n {
		return nil
	}
	var devices []int
	if r.Intn(2) == 0 {
		at := r.Intn(len(free) - n + 1)
		devices = append(devices, free[at:at+n]...)
	} else {
		r.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		devices = append(devices, free[:n]...)
		sort.Ints(devices)
	}
	if r.Intn(2) == 0 {
		r.Shuffle(n, func(i, j int) { devices[i], devices[j] = devices[j], devices[i] })
	}
	m, err := mesh.NewMesh(topo, shape, devices)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		used[d] = true
	}
	return m
}

// randomSpecFor draws a spec of the given tensor rank for mesh m: each mesh
// axis shards a random dimension or none, in a random order within it.
func randomSpecFor(r *rand.Rand, m *mesh.Mesh, rank int) Spec {
	dims := make([]DimSharding, rank)
	for _, a := range r.Perm(m.Rank()) {
		if i := r.Intn(rank + 1); i < rank {
			dims[i].MeshAxes = append(dims[i].MeshAxes, a)
		}
	}
	return Spec{Dims: dims}
}

// checkDecomposeMatchesReference draws one resharding from seed and holds
// NewTask's units, and the placements' regions and holders, to the
// references.
func checkDecomposeMatchesReference(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	topo := mesh.MixedP3DGXCluster(2, 2, 1)
	used := make([]bool, topo.NumDevices())
	srcMesh, dstMesh := randomMesh(t, r, topo, used), randomMesh(t, r, topo, used)
	if srcMesh == nil || dstMesh == nil {
		return
	}
	rank := 1 + r.Intn(3)
	shape := make(tensor.Shape, rank)
	for i := range shape {
		shape[i] = 1 + r.Intn(13)
	}
	srcSpec, dstSpec := randomSpecFor(r, srcMesh, rank), randomSpecFor(r, dstMesh, rank)
	task, err := NewTask(shape, tensor.Float16, srcMesh, srcSpec, dstMesh, dstSpec)
	if err != nil {
		// Only a dimension too short for its shard degree is refused.
		if srcSpec.Validate(srcMesh, shape) == nil && dstSpec.Validate(dstMesh, shape) == nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return
	}
	want := referenceDecompose(t, task.Src, task.Dst)
	if len(task.Units) != len(want) {
		t.Fatalf("seed %d: %d units, want %d", seed, len(task.Units), len(want))
	}
	for i, u := range task.Units {
		w := want[i]
		if u.Index != w.Index || !u.Slice.Equal(w.Slice) || !reflect.DeepEqual(u.Senders, w.Senders) || !reflect.DeepEqual(u.Receivers, w.Receivers) {
			t.Fatalf("seed %d (%v %s -> %v %s, shape %v): unit %d = %+v, want %+v",
				seed, srcMesh, srcSpec, dstMesh, dstSpec, shape, i, u, w)
		}
		// The three shared arrays are carved, not aliased: appending to one
		// unit's list cannot write into the next unit's.
		if cap(u.Slice) != len(u.Slice) || cap(u.Senders) != len(u.Senders) || cap(u.Receivers) != len(u.Receivers) {
			t.Fatalf("seed %d: unit %d lists have spare capacity", seed, i)
		}
	}
	for _, p := range []*Placement{task.Src, task.Dst} {
		regions := referenceRegions(t, p)
		if got := p.DeviceRegions(); !reflect.DeepEqual(got, regions) {
			t.Fatalf("seed %d: DeviceRegions = %v, want %v", seed, got, regions)
		}
		for _, dr := range regions {
			if got, err := p.RegionOfDevice(dr.Device); err != nil || !got.Equal(dr.Region) {
				t.Fatalf("seed %d: RegionOfDevice(%d) = %v, %v, want %v", seed, dr.Device, got, err, dr.Region)
			}
		}
		for _, u := range want {
			if got := p.HoldersOf(u.Slice); !reflect.DeepEqual(got, referenceHolders(regions, u.Slice)) {
				t.Fatalf("seed %d: HoldersOf(%v) = %v, want %v", seed, u.Slice, got, referenceHolders(regions, u.Slice))
			}
		}
	}
}

// FuzzDecomposeMatchesReference holds the decomposition — merged cut lists,
// holders by shard coordinates, units carved from three arrays — to
// referenceDecompose over random meshes (device orders that are not
// ascending included), specs and shapes.
func FuzzDecomposeMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkDecomposeMatchesReference)
}

// TestDecomposeMatchesReference runs FuzzDecomposeMatchesReference's check
// over a fixed range of seeds.
func TestDecomposeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		checkDecomposeMatchesReference(t, seed)
	}
}
