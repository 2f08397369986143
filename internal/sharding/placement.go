package sharding

import (
	"fmt"

	"alpacomm/internal/mesh"
	"alpacomm/internal/tensor"
)

// Placement binds a spec to a concrete mesh and tensor shape and answers
// "which region of the global tensor does each device hold?".
type Placement struct {
	Mesh   *mesh.Mesh
	Spec   Spec
	Global tensor.Shape
	// cuts[i] holds the shard boundaries of tensor dimension i.
	cuts [][]int
	// coords[flat*rank+i] is the shard of tensor dimension i held by the
	// device at mesh position flat: the device holds the interval
	// [cuts[i][c], cuts[i][c+1]) of every dimension. Regions are rendered
	// from it on demand; decomposition compares the coordinates directly.
	coords []int32
}

// NewPlacement validates the triple and precomputes shard boundaries.
func NewPlacement(m *mesh.Mesh, spec Spec, global tensor.Shape) (*Placement, error) {
	return newPlacement(m, spec, global.Clone())
}

// newPlacement is NewPlacement keeping global, which the caller must not
// modify afterwards.
func newPlacement(m *mesh.Mesh, spec Spec, global tensor.Shape) (*Placement, error) {
	if err := spec.Validate(m, global); err != nil {
		return nil, err
	}
	rank := global.Rank()
	nCuts := 0
	for i := 0; i < rank; i++ {
		nCuts += spec.ShardDegree(m, i) + 1
	}
	buf := make([]int, nCuts)
	cuts := make([][]int, rank)
	for i := range cuts {
		deg := spec.ShardDegree(m, i)
		// Validate refused a degree above the dimension's length, so every
		// shard holds at least one element: tensor.PartitionBoundaries' cuts.
		b := buf[: deg+1 : deg+1]
		buf = buf[deg+1:]
		for j := range b {
			b[j] = j * global[i] / deg
		}
		cuts[i] = b
	}
	p := &Placement{Mesh: m, Spec: spec, Global: global, cuts: cuts}
	p.coords = make([]int32, m.NumDevices()*rank)
	var small [8]int
	coord := small[:]
	if m.Rank() > len(small) {
		coord = make([]int, m.Rank())
	}
	coord = coord[:m.Rank()] // the mesh coordinate of position flat
	for flat := 0; flat < m.NumDevices(); flat++ {
		for i := 0; i < rank; i++ {
			p.coords[flat*rank+i] = int32(p.shardIndex(i, coord))
		}
		// Row-major increment of the mesh coordinate.
		for a := len(coord) - 1; a >= 0; a-- {
			if coord[a]++; coord[a] < m.Shape[a] {
				break
			}
			coord[a] = 0
		}
	}
	return p, nil
}

// Cuts returns the shard boundaries along tensor dimension i.
func (p *Placement) Cuts(i int) []int { return p.cuts[i] }

// shardIndex computes which shard of tensor dim i the device at the given
// mesh coordinates holds: the lexicographic combination of its coordinates
// along the dim's mesh axes.
func (p *Placement) shardIndex(dim int, coord []int) int {
	idx := 0
	for _, a := range p.Spec.Dims[dim].MeshAxes {
		idx = idx*p.Mesh.Shape[a] + coord[a]
	}
	return idx
}

// RegionAt returns the global-tensor region held by the device at the given
// logical mesh coordinates.
func (p *Placement) RegionAt(coord ...int) (tensor.Region, error) {
	if len(coord) != p.Mesh.Rank() {
		return nil, fmt.Errorf("sharding: coordinate rank %d != mesh rank %d", len(coord), p.Mesh.Rank())
	}
	for i, c := range coord {
		if c < 0 || c >= p.Mesh.Shape[i] {
			return nil, fmt.Errorf("sharding: coordinate %v outside mesh shape %v", coord, p.Mesh.Shape)
		}
	}
	r := make(tensor.Region, p.Global.Rank())
	for i := range r {
		j := p.shardIndex(i, coord)
		r[i] = tensor.Interval{Lo: p.cuts[i][j], Hi: p.cuts[i][j+1]}
	}
	return r, nil
}

// regionOf renders the region held by the device at mesh position flat.
func (p *Placement) regionOf(flat int) tensor.Region {
	r := make(tensor.Region, p.Global.Rank())
	for i := range r {
		c := p.coords[flat*len(r)+i]
		r[i] = tensor.Interval{Lo: p.cuts[i][c], Hi: p.cuts[i][c+1]}
	}
	return r
}

// RegionOfDevice returns the region held by a physical device that belongs
// to the mesh.
func (p *Placement) RegionOfDevice(device int) (tensor.Region, error) {
	for flat, d := range p.Mesh.Devices {
		if d == device {
			return p.regionOf(flat), nil
		}
	}
	return nil, fmt.Errorf("sharding: device %d not in mesh %v", device, p.Mesh)
}

// DeviceRegions returns, for every device of the mesh (in mesh row-major
// order), the pair (physical device index, region held), rendered afresh on
// each call.
func (p *Placement) DeviceRegions() []DeviceRegion {
	out := make([]DeviceRegion, len(p.Mesh.Devices))
	for flat, d := range p.Mesh.Devices {
		out[flat] = DeviceRegion{Device: d, Region: p.regionOf(flat)}
	}
	return out
}

// DeviceRegion pairs a physical device with the global-tensor region it
// holds under a placement.
type DeviceRegion struct {
	Device int
	Region tensor.Region
}

// HoldersOf returns the physical devices whose region fully contains r
// (replicas of the slice, the paper's set N_i / M_i), in mesh order.
func (p *Placement) HoldersOf(r tensor.Region) []int {
	var out []int
	if len(r) != p.Global.Rank() {
		return out
	}
	for flat, d := range p.Mesh.Devices {
		holds := true
		for i := 0; i < len(r) && holds; i++ {
			c := p.coords[flat*len(r)+i]
			holds = tensor.Interval{Lo: p.cuts[i][c], Hi: p.cuts[i][c+1]}.Contains(r[i])
		}
		if holds {
			out = append(out, d)
		}
	}
	return out
}

// Buffers allocates one data-plane buffer per device, covering exactly the
// region the placement assigns it. The map key is the physical device index.
func (p *Placement) Buffers() (map[int]*tensor.Buffer, error) {
	out := make(map[int]*tensor.Buffer, p.Mesh.NumDevices())
	for flat, d := range p.Mesh.Devices {
		b, err := tensor.NewBuffer(p.Global, p.regionOf(flat))
		if err != nil {
			return nil, err
		}
		out[d] = b
	}
	return out, nil
}

// BytesPerDevice returns the size in bytes of the largest per-device region
// under the placement.
func (p *Placement) BytesPerDevice(dt tensor.DType) int64 {
	var max int64
	for flat := range p.Mesh.Devices {
		if b := p.regionOf(flat).NumElements() * dt.Size(); b > max {
			max = b
		}
	}
	return max
}
