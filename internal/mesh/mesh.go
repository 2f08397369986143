package mesh

import (
	"fmt"
	"sort"
	"strings"
)

// Mesh is an n-dimensional logical array of devices sliced from a topology
// (GSPMD's definition, §2.2). Devices is the row-major flattening of the
// logical array; the same physical devices can be viewed under different
// shapes.
type Mesh struct {
	// Topo is the topology the devices live on.
	Topo Topology
	// Shape is the logical extent of each mesh dimension.
	Shape []int
	// Devices holds the physical device index at each logical position, in
	// row-major order. len(Devices) == product(Shape).
	Devices []int
}

// NewMesh validates and builds a mesh over explicit device indices.
func NewMesh(c Topology, shape []int, devices []int) (*Mesh, error) {
	m, err := newMesh(c, shape, len(devices))
	if err != nil {
		return nil, err
	}
	copy(m.Devices, devices)
	if err := m.checkDevices(); err != nil {
		return nil, err
	}
	return m, nil
}

// newMesh validates the topology and shape and returns a mesh whose Shape
// is a copy of shape and whose Devices, n long and still zero, share one
// array with it; n must be the product of the extents.
func newMesh(c Topology, shape []int, n int) (*Mesh, error) {
	if c == nil {
		return nil, fmt.Errorf("mesh: nil topology")
	}
	if len(shape) == 0 {
		return nil, fmt.Errorf("mesh: mesh must have at least one dimension")
	}
	want := 1
	for i, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("mesh: dimension %d has non-positive extent %d", i, d)
		}
		want *= d
	}
	if n != want {
		return nil, fmt.Errorf("mesh: shape %v needs %d devices, got %d", shape, want, n)
	}
	r := len(shape)
	buf := make([]int, r+n)
	copy(buf, shape)
	return &Mesh{Topo: c, Shape: buf[:r:r], Devices: buf[r:]}, nil
}

// checkDevices reports the first device, in mesh order, that is outside the
// topology or repeats an earlier one. Seen devices are marked in a bitset.
func (m *Mesh) checkDevices() error {
	var small [4]uint64
	seen := small[:]
	if words := (m.Topo.NumDevices() + 63) / 64; words > len(seen) {
		seen = make([]uint64, words)
	}
	for _, d := range m.Devices {
		if !m.Topo.ValidDevice(d) {
			return fmt.Errorf("mesh: device %d outside topology with %d devices", d, m.Topo.NumDevices())
		}
		w, bit := d/64, uint64(1)<<(d%64)
		if seen[w]&bit != 0 {
			return fmt.Errorf("mesh: duplicate device %d", d)
		}
		seen[w] |= bit
	}
	return nil
}

// sliceTopology builds a mesh from a contiguous run of devices starting at
// firstDevice, laid out row-major over shape. This is how pipeline stages
// carve meshes out of a topology (§2.1); every Topology implementation's
// Slice method delegates here.
func sliceTopology(t Topology, shape []int, firstDevice int) (*Mesh, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("mesh: non-positive extent in shape %v", shape)
		}
		n *= d
	}
	m, err := newMesh(t, shape, n)
	if err != nil {
		return nil, err
	}
	for i := range m.Devices {
		m.Devices[i] = firstDevice + i
	}
	if err := m.checkDevices(); err != nil {
		return nil, err
	}
	return m, nil
}

// Rank returns the number of logical mesh dimensions.
func (m *Mesh) Rank() int { return len(m.Shape) }

// NumDevices returns the number of devices in the mesh.
func (m *Mesh) NumDevices() int { return len(m.Devices) }

// flatIndex converts logical coordinates to the row-major position.
func (m *Mesh) flatIndex(coord []int) (int, error) {
	if len(coord) != len(m.Shape) {
		return 0, fmt.Errorf("mesh: coordinate rank %d != mesh rank %d", len(coord), len(m.Shape))
	}
	idx := 0
	for i, c := range coord {
		if c < 0 || c >= m.Shape[i] {
			return 0, fmt.Errorf("mesh: coordinate %v outside shape %v", coord, m.Shape)
		}
		idx = idx*m.Shape[i] + c
	}
	return idx, nil
}

// DeviceAt returns the physical device at logical coordinates.
func (m *Mesh) DeviceAt(coord ...int) (int, error) {
	idx, err := m.flatIndex(coord)
	if err != nil {
		return 0, err
	}
	return m.Devices[idx], nil
}

// CoordOf returns the logical coordinates of the i-th mesh position
// (row-major).
func (m *Mesh) CoordOf(flat int) []int {
	coord := make([]int, len(m.Shape))
	for i := len(m.Shape) - 1; i >= 0; i-- {
		coord[i] = flat % m.Shape[i]
		flat /= m.Shape[i]
	}
	return coord
}

// Hosts returns the sorted set of host indices the mesh spans.
func (m *Mesh) Hosts() []int {
	seen := map[int]bool{}
	var hosts []int
	for _, d := range m.Devices {
		h := m.Topo.HostOf(d)
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	sort.Ints(hosts)
	return hosts
}

// DevicesByHost groups the mesh's devices by host, sorted by host then
// device index.
func (m *Mesh) DevicesByHost() map[int][]int {
	out := map[int][]int{}
	for _, d := range m.Devices {
		h := m.Topo.HostOf(d)
		out[h] = append(out[h], d)
	}
	for h := range out {
		sort.Ints(out[h])
	}
	return out
}

// Contains reports whether the mesh includes the physical device.
func (m *Mesh) Contains(device int) bool {
	for _, d := range m.Devices {
		if d == device {
			return true
		}
	}
	return false
}

// Disjoint reports whether two meshes share no devices. Cross-mesh
// resharding is only defined between disjoint meshes (§2.2).
func Disjoint(a, b *Mesh) bool {
	set := make(map[int]bool, len(a.Devices))
	for _, d := range a.Devices {
		set[d] = true
	}
	for _, d := range b.Devices {
		if set[d] {
			return false
		}
	}
	return true
}

// Reshape returns a new logical view of the same devices under a different
// shape (e.g. a (2,2) mesh viewed as (1,4)).
func (m *Mesh) Reshape(shape []int) (*Mesh, error) {
	return NewMesh(m.Topo, shape, m.Devices)
}

func (m *Mesh) String() string {
	dims := make([]string, len(m.Shape))
	for i, d := range m.Shape {
		dims[i] = fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf("mesh(%s)%v", strings.Join(dims, "x"), m.Devices)
}
